package analysis

// poolown proves the linear ownership protocol of the batch-memory
// pool: every pooled value obtained from a producer reaches exactly
// one consumer on every control-flow path.

const sp = storagePath + "."

// PoolOwn flags leaked, double-released, discarded and
// used-after-release pooled values.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc: "check that every pooled batch/column/relation from the storage pool " +
		"reaches exactly one PutBatch/Release/Disown on every path",
	Run: func(p *Pass) error { return runOwnership(p, poolOwnSpec) },
}

var poolOwnSpec = &ownSpec{
	directive: "ownership-transferred",
	noun:      "pooled value",
	producers: map[string]int{
		sp + "NewPooledBatch":    0,
		sp + "ViewWithSel":       0,
		sp + "GatherPooled":      0,
		sp + "GatherRunsPooled":  0,
		sp + "GetRelation":       0,
		sp + "Batch.DetachSel":   0,
		sp + "Batch.Materialize": 0,
	},
	recvConsumed: map[string]bool{
		sp + "Batch.DetachSel":   true,
		sp + "Batch.Materialize": true,
	},
	consumers: map[string]consumeKind{
		sp + "PutBatch":         consumeRelease,
		sp + "PutBatchExcept":   consumeRelease,
		sp + "PutColumn":        consumeRelease,
		sp + "PutRelation":      consumeRelease,
		sp + "Relation.Release": consumeRelease,
		sp + "DisownBatch":      consumeDisown,
		sp + "Relation.Disown":  consumeDisown,
	},
	argConsumers: map[string]consumeKind{
		// Sink transfer: handing a batch to a StreamSink moves ownership
		// to the sink (the StreamSink contract — Push recycles or retains
		// the batch, even on error), so the push is the one consumer.
		// Matches by bare method name, as .Eval does in poolBorrows.
		".Push": consumeRelease,
	},
	borrows: poolBorrows,
	recvBorrows: map[string]bool{
		// The relation stays owned; the appended batch is handed off.
		sp + "Relation.Append": true,
	},
	skipPkgs: map[string]bool{storagePath: true},
}

// poolBorrows lists calls that read pooled values without taking
// ownership. Shared by poolown, selalias and releasecheck.
var poolBorrows = map[string]bool{
	// Batch reads.
	sp + "Batch.Len":     true,
	sp + "Batch.Width":   true,
	sp + "Batch.Sel":     true,
	sp + "Batch.MemSize": true,
	sp + "Batch.Slice":   true,
	sp + "Batch.Gather":  true,
	sp + "Batch.WithSel": true,
	// Relation reads. Flatten's result aliases the relation's batches
	// but does not move ownership.
	sp + "Relation.Batches": true,
	sp + "Relation.Rows":    true,
	sp + "Relation.MemSize": true,
	sp + "Relation.Zone":    true,
	sp + "Relation.Flatten": true,
	// Column accessors.
	sp + "Int64s":     true,
	sp + "Float64s":   true,
	sp + "Bools":      true,
	sp + "ColumnZone": true,
	// Selection-vector recycling reads nothing from the batch.
	sp + "PutSel": true,
	// Row/key readers over batches.
	sp + "ValueAt":                    true,
	"sommelier/internal/index.KeyAt":  true,
	"sommelier/internal/expr.EvalSel": true,
	// The key resolver and the join probe's column builders read the
	// probe batch; its columns that pass through into the join output
	// are kept by the caller's PutBatchExcept.
	"sommelier/internal/physical.keyIndex.resolve":    true,
	"sommelier/internal/physical.HashJoin.runCols":    true,
	"sommelier/internal/physical.HashJoin.gatherCols": true,
	// Interface-method reads (funcKey cannot name the dynamic type, so
	// these match by bare method name): expression evaluation borrows
	// the batch it reads.
	".Eval":    true,
	".EvalSel": true,
}
