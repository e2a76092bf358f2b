package analysis

// releasecheck enforces the caller half of the chunk-memory protocol:
// whoever runs a query owns the result, whose rows may alias chunk
// memory, and must call Release on it on every path so the chunk store
// can reuse that memory. Test files are exempt — tests may lean on the
// garbage collector, and the leak-focused ones assert the engine's
// chunk-handle gauge instead.

const (
	execPath   = "sommelier/internal/exec."
	enginePath = "sommelier/internal/engine."
)

// ReleaseCheck flags query results that are never released.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc: "check that callers of exec/engine query entry points release the " +
		"Result on every path",
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
	},
	consumers: map[string]bool{
		// res.Release() resolves here for engine.Result too (it embeds
		// *exec.Result).
		execPath + "Result.Release": true,
	},
	borrows: mergeKeys(batchBorrows, map[string]bool{
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
