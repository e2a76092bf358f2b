package analysis

// releasecheck enforces the caller half of the protocol: whoever runs
// a query owns the result and must call Release (or Disown) on it on
// every path. Test files are exempt — tests may lean on the garbage
// collector, and the pool-focused ones assert with
// storage.RequireNoLeaks instead.

const (
	execPath     = "sommelier/internal/exec."
	enginePath   = "sommelier/internal/engine."
	physicalPath = "sommelier/internal/physical."
)

// ReleaseCheck flags query results that are never released.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc: "check that callers of exec/engine query entry points release the " +
		"Result (or the drained Relation) on every path",
	Run: func(p *Pass) error { return runOwnership(p, releaseSpec) },
}

var releaseSpec = &ownSpec{
	directive: "ownership-transferred",
	noun:      "query result",
	producers: map[string]int{
		execPath + "Execute": 0,

		enginePath + "DB.Query":            0,
		enginePath + "DB.QueryContext":     0,
		enginePath + "DB.QueryArgs":        0,
		enginePath + "DB.QueryArgsContext": 0,
		enginePath + "DB.Run":              0,
		enginePath + "DB.RunContext":       0,
		enginePath + "Stmt.Query":          0,
		enginePath + "Stmt.QueryContext":   0,

		physicalPath + "Collect": 0,
	},
	consumers: map[string]consumeKind{
		// res.Release() resolves here for engine.Result too (it embeds
		// *exec.Result).
		execPath + "Result.Release": consumeRelease,
		// Drained relations (and res.Rel selector chains) release
		// through the storage protocol.
		sp + "Relation.Release": consumeRelease,
		sp + "Relation.Disown":  consumeDisown,
		sp + "PutRelation":      consumeRelease,
	},
	borrows: mergeKeys(poolBorrows, map[string]bool{
		execPath + "Result.Rows": true,
	}),
	skipTests: true,
}

func mergeKeys(ms ...map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
