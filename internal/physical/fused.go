package physical

import (
	"fmt"
	"sync/atomic"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// FusedPipeline is a RelScan → Filter → Project chain compiled into one
// operator: per input batch it evaluates the conjoined scan predicate
// and residual filter through the fused selection kernels, then writes
// the projected output columns of the surviving rows straight into
// pooled output builders — no intermediate batch exchange, no deferred
// selection handed between operators, no per-operator column slices.
// Output batches are coalesced to BatchSize and pooled; a predicate-free
// all-column-reference projection passes the (narrowed) input batches
// through without copying, exactly as the unfused chain would.
//
// The pipeline is split-aware: Split cuts the remaining morsels into
// contiguous ranges served by independent pipelines (sharing the
// zone-skip counter), so morsel-driven parallelism applies to fused
// chains exactly as to bare scans.
type FusedPipeline struct {
	names []string
	kinds []storage.Kind
	// inNames/inKinds describe the (possibly narrowed) scan schema the
	// predicate and projections bind against.
	inNames []string
	inKinds []storage.Kind
	pred    expr.Expr
	morsels []scanMorsel
	bounds  []zoneBound
	exact   bool // pred is nothing but bounds (see RelScan)
	pos     int
	srcCols []int
	skipped *atomic.Int64
	// colIdx[i] ≥ 0 names the input column output i passes through;
	// computed outputs carry -1 and evaluate exprs[i].
	colIdx      []int
	exprs       []expr.Expr
	passthrough bool // every output is a bare column reference
	// scratchCols are the input columns the computed expressions
	// reference — the only columns gathered into the selection scratch —
	// and scratchExprs are the computed expressions re-bound against
	// that narrowed scratch schema.
	scratchCols  []int
	scratchExprs []expr.Expr

	builders []storage.Builder
	rows     int
	armed    bool
	// pendingOut is a zero-copy batch to emit after the current fill;
	// pendB/pendSel defer an input whose rows would overflow the fill.
	pendingOut *storage.Batch
	pendB      *storage.Batch
	pendSel    []int32
	pendHas    bool
}

// NewFusedPipeline builds a fused scan/filter/project over the
// concatenation of rels. inNames/inKinds are the scan's (narrowed)
// schema and srcCols its source-column mapping (nil = identity); pred
// is the conjunction of the scan predicate and any residual filter;
// outNames/outExprs define the projection. All output kinds must be
// fixed-width (the planner only fuses such chains).
func NewFusedPipeline(rels []*storage.Relation, inNames []string, inKinds []storage.Kind,
	pred expr.Expr, srcCols []int, outNames []string, outExprs []expr.Expr) (*FusedPipeline, error) {
	s := &FusedPipeline{
		names:   outNames,
		inNames: inNames,
		inKinds: inKinds,
		srcCols: srcCols,
		skipped: new(atomic.Int64),
	}
	for _, rel := range rels {
		for i := range rel.Batches() {
			s.morsels = append(s.morsels, scanMorsel{rel: rel, idx: i})
		}
	}
	if pred != nil {
		pred = expr.Clone(pred)
		if k, err := pred.Bind(inNames, inKinds); err != nil {
			return nil, err
		} else if k != storage.KindBool {
			return nil, fmt.Errorf("physical: fused predicate is %v, not boolean", k)
		}
		s.pred = pred
		s.bounds, s.exact = zoneBounds(pred, inKinds)
	}
	s.passthrough = true
	for _, e := range outExprs {
		e = expr.Clone(e)
		k, err := e.Bind(inNames, inKinds)
		if err != nil {
			return nil, err
		}
		switch k {
		case storage.KindInt64, storage.KindFloat64, storage.KindBool, storage.KindTime:
		default:
			return nil, fmt.Errorf("physical: fused projection of %v column", k)
		}
		s.kinds = append(s.kinds, k)
		if cr, ok := e.(*expr.ColRef); ok {
			s.colIdx = append(s.colIdx, cr.Idx)
			s.exprs = append(s.exprs, nil)
		} else {
			s.colIdx = append(s.colIdx, -1)
			s.exprs = append(s.exprs, e)
			s.passthrough = false
		}
	}
	if err := s.initScratch(); err != nil {
		return nil, err
	}
	return s, nil
}

// initScratch prepares the narrowed scratch schema for computed
// outputs: the set of input columns their expressions reference, and
// clones of the expressions bound against that subset. Selection
// scratch batches then gather only those columns.
func (s *FusedPipeline) initScratch() error {
	if s.passthrough {
		return nil
	}
	need := make(map[int]bool)
	for _, e := range s.exprs {
		if e == nil {
			continue
		}
		for _, name := range expr.Columns(e) {
			for ci, n := range s.inNames {
				if n == name {
					need[ci] = true
				}
			}
		}
	}
	s.scratchCols = s.scratchCols[:0]
	for ci := range s.inNames {
		if need[ci] {
			s.scratchCols = append(s.scratchCols, ci)
		}
	}
	if len(s.scratchCols) == 0 {
		// A column-free computed expression (constant arithmetic) still
		// needs the scratch batch to carry the survivor count.
		s.scratchCols = []int{0}
	}
	scratchNames := make([]string, len(s.scratchCols))
	scratchKinds := make([]storage.Kind, len(s.scratchCols))
	for k, ci := range s.scratchCols {
		scratchNames[k], scratchKinds[k] = s.inNames[ci], s.inKinds[ci]
	}
	s.scratchExprs = make([]expr.Expr, len(s.exprs))
	for i, e := range s.exprs {
		if e == nil {
			continue
		}
		c := expr.Clone(e)
		if _, err := c.Bind(scratchNames, scratchKinds); err != nil {
			return err
		}
		s.scratchExprs[i] = c
	}
	return nil
}

// Names implements Operator.
func (s *FusedPipeline) Names() []string { return s.names }

// Kinds implements Operator.
func (s *FusedPipeline) Kinds() []storage.Kind { return s.kinds }

// BatchHint implements BatchHinter.
func (s *FusedPipeline) BatchHint() int { return len(s.morsels) }

// Skipped reports zone-pruned batches across every split range.
func (s *FusedPipeline) Skipped() int { return int(s.skipped.Load()) }

// Split implements Splitter, mirroring RelScan.Split: the remaining
// morsels are cut into contiguous ranges, each served by an independent
// pipeline with its own expression clones and builders.
func (s *FusedPipeline) Split(n int) ([]Operator, error) {
	rest := s.morsels[s.pos:]
	ranges := splitRanges(len(rest), n, scanSplitGrain)
	if ranges == nil {
		return nil, nil
	}
	out := make([]Operator, len(ranges))
	for i, r := range ranges {
		child := &FusedPipeline{
			names:   s.names,
			kinds:   s.kinds,
			inNames: s.inNames,
			inKinds: s.inKinds,
			morsels: rest[r[0]:r[1]],
			bounds:  s.bounds,
			exact:   s.exact,
			srcCols: s.srcCols,
			skipped: s.skipped,
			colIdx:  append([]int(nil), s.colIdx...),

			passthrough: s.passthrough,
		}
		if s.pred != nil {
			p := expr.Clone(s.pred)
			if _, err := p.Bind(s.inNames, s.inKinds); err != nil {
				return nil, err
			}
			child.pred = p
		}
		child.exprs = make([]expr.Expr, len(s.exprs))
		for ei, e := range s.exprs {
			if e == nil {
				continue
			}
			c := expr.Clone(e)
			if _, err := c.Bind(s.inNames, s.inKinds); err != nil {
				return nil, err
			}
			child.exprs[ei] = c
		}
		if err := child.initScratch(); err != nil {
			return nil, err
		}
		out[i] = child
	}
	s.pos = len(s.morsels)
	return out, nil
}

// Next implements Operator.
func (s *FusedPipeline) Next() (*storage.Batch, error) {
	for {
		if s.pendingOut != nil {
			out := s.pendingOut
			s.pendingOut = nil
			return out, nil
		}
		if s.pendHas {
			b, sel := s.pendB, s.pendSel
			s.pendB, s.pendSel, s.pendHas = nil, nil, false
			s.appendRows(b, sel)
			if s.rows >= storage.BatchSize {
				return s.flush(), nil
			}
			continue
		}
		if s.pos >= len(s.morsels) {
			if s.rows > 0 {
				return s.flush(), nil
			}
			return nil, nil
		}
		m := s.morsels[s.pos]
		s.pos++
		if s.pred != nil && pruneMorsel(m, s.bounds, s.srcCols) {
			s.skipped.Add(1)
			continue
		}
		b := m.rel.Batches()[m.idx]
		if s.srcCols != nil {
			cols := make([]storage.Column, len(s.srcCols))
			for i, sc := range s.srcCols {
				cols[i] = b.Cols[sc]
			}
			b = storage.NewBatch(cols...)
		}
		var sel []int32
		if s.pred != nil && !(s.exact && morselInside(m, s.bounds, s.srcCols)) {
			sel = expr.EvalSel(s.pred, b, nil)
			if len(sel) == 0 {
				storage.PutSel(sel)
				continue
			}
			if len(sel) == b.Len() {
				storage.PutSel(sel)
				sel = nil
			}
		}
		if sel == nil && s.passthrough {
			// Zero-copy: every surviving row of every column passes
			// through — share the input columns, as the unfused chain
			// would have.
			out := s.projectShared(b)
			if s.rows > 0 {
				s.pendingOut = out
				return s.flush(), nil
			}
			return out, nil
		}
		n := b.Len()
		if sel != nil {
			n = len(sel)
		}
		if s.rows > 0 && s.rows+n > storage.BatchSize {
			// Flush the fill first so the builders never re-grow; the
			// current input is deferred to the next call.
			s.pendB, s.pendSel, s.pendHas = b, sel, true
			return s.flush(), nil
		}
		s.appendRows(b, sel)
		if s.rows >= storage.BatchSize {
			return s.flush(), nil
		}
	}
}

// projectShared emits the projection as shared references to the input
// columns (valid only on the passthrough, all-rows path).
func (s *FusedPipeline) projectShared(b *storage.Batch) *storage.Batch {
	cols := make([]storage.Column, len(s.colIdx))
	for i, ci := range s.colIdx {
		cols[i] = b.Cols[ci]
	}
	return storage.NewBatch(cols...)
}

// appendRows folds the selected rows of b into the output builders:
// column references append straight from the input backing arrays;
// computed expressions evaluate over a pooled gather of the survivors.
func (s *FusedPipeline) appendRows(b *storage.Batch, sel []int32) {
	if s.builders == nil {
		s.builders = make([]storage.Builder, len(s.kinds))
		for i, k := range s.kinds {
			s.builders[i] = storage.NewPooledBuilder(k, storage.BatchSize)
		}
	} else if !s.armed {
		for _, bl := range s.builders {
			bl.Reset(storage.BatchSize)
		}
	}
	s.armed = true
	var scratch *storage.Batch
	for i, ci := range s.colIdx {
		if ci >= 0 {
			if sel != nil {
				s.builders[i].AppendSel(b.Cols[ci], sel)
			} else {
				s.builders[i].AppendAll(b.Cols[ci])
			}
			continue
		}
		if sel == nil {
			s.builders[i].AppendAll(s.exprs[i].Eval(b))
			continue
		}
		if scratch == nil {
			// One pooled gather of the survivors — only the columns the
			// computed outputs reference — serves every computed output
			// of this batch.
			cols := make([]storage.Column, len(s.scratchCols))
			for k, ci := range s.scratchCols {
				cols[k] = storage.GatherPooled(b.Cols[ci], sel)
			}
			scratch = storage.NewPooledBatch(cols...)
		}
		s.builders[i].AppendAll(s.scratchExprs[i].Eval(scratch))
	}
	if scratch != nil {
		storage.PutBatch(scratch)
	}
	if sel != nil {
		s.rows += len(sel)
		storage.PutSel(sel)
	} else {
		s.rows += b.Len()
	}
}

// flush emits the accumulated fill as one pooled batch.
func (s *FusedPipeline) flush() *storage.Batch {
	cols := make([]storage.Column, len(s.builders))
	for i, bl := range s.builders {
		cols[i] = bl.Finish()
	}
	s.armed = false
	s.rows = 0
	return storage.NewPooledBatch(cols...)
}
