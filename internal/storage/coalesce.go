package storage

// Coalescer accumulates the surviving rows of selection-carrying
// batches into full-width contiguous output batches. Draining a
// filtering scan would otherwise materialize one small batch per input
// batch — one Gather, one column set and one batch header each; the
// coalescer instead appends the selected rows into shared builders and
// emits batches of at least BatchSize rows, so downstream consumers
// (and a later Flatten) see a fraction of the batch count for the same
// row copies.
//
// Only fixed-width column sets are eligible: appending into a string
// builder would re-encode the dictionary per row, which can cost more
// than the gather it replaces.
type Coalescer struct {
	kinds    []Kind
	eligible bool
	builders []Builder
	// armed marks that the builders hold backing capacity for the
	// current fill; Flush disarms instead of re-allocating, so the
	// final flush of a stream never arms capacity it will not use.
	armed bool
	rows  int
	// runs is the scratch that maps selected rows of a run-shaped
	// column to its runs, reused on every Add.
	runs []int32
}

// NewCoalescer prepares a coalescer for the given output schema.
func NewCoalescer(kinds []Kind) *Coalescer {
	c := &Coalescer{kinds: kinds, eligible: len(kinds) > 0}
	for _, k := range kinds {
		switch k {
		case KindInt64, KindFloat64, KindBool, KindTime:
		default:
			c.eligible = false
		}
	}
	return c
}

// Eligible reports whether b should be routed through the coalescer: a
// deferred-selection batch over a fixed-width schema. Contiguous
// batches pass through the drain without copying, so coalescing them
// would only add work.
func (c *Coalescer) Eligible(b *Batch) bool {
	return c.eligible && b.Sel() != nil
}

// Add copies b's selected rows into the builders, so nothing of b is
// kept past the call. The fill is flushed to out before it would
// overflow BatchSize (so the builders never re-grow) and again when it
// reaches BatchSize exactly.
func (c *Coalescer) Add(out *Relation, b *Batch) {
	sel := b.Sel()
	if c.rows > 0 && c.rows+len(sel) > BatchSize {
		c.Flush(out)
	}
	if c.builders == nil {
		c.builders = make([]Builder, len(c.kinds))
		for i, k := range c.kinds {
			// A fresh heap array is zeroed on allocation: the first fill
			// starts at the size of what arrived and grows, so a stage-one
			// drain of a few dozen rows does not pay for BatchSize of them
			// per column.
			c.builders[i] = NewBuilder(k, len(sel))
		}
	} else if !c.armed {
		for _, bl := range c.builders {
			bl.Reset(BatchSize)
		}
	}
	c.armed = true
	for ci, col := range b.Cols {
		if rc, ok := col.(*RunColumn); ok {
			c.runs = rc.runsOf(c.runs[:0], sel)
			c.builders[ci].AppendSel(rc.vals, c.runs)
			continue
		}
		c.builders[ci].AppendSel(col, sel)
	}
	c.rows += len(sel)
	if c.rows >= BatchSize {
		c.Flush(out)
	}
}

// Flush emits the accumulated rows, if any, as one batch.
func (c *Coalescer) Flush(out *Relation) {
	if c.rows == 0 {
		return
	}
	cols := make([]Column, len(c.builders))
	for i, b := range c.builders {
		// Finish surrenders the backing slice to the column; the next
		// Add re-arms capacity lazily, so a stream's final flush does
		// not allocate backing it will never fill.
		cols[i] = b.Finish()
	}
	out.Append(NewBatch(cols...))
	c.armed = false
	c.rows = 0
}
