// Package physical implements the vectorized execution operators. Each
// operator pulls batches from its inputs (volcano style, but on column
// batches rather than tuples, mirroring the bulk-processing paradigm of
// the paper's host system).
//
// The access paths of the paper map onto this package as follows:
// scan and result-scan are RelScans over resident relations, cache-scan
// is a RelScan over a cached chunk relation, index-scan is an
// IndexScan, and chunk-access is a RelScan over a freshly ingested
// chunk (the ingestion itself lives in the engine's run-time
// optimizer).
package physical

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/index"
	"sommelier/internal/storage"
)

// Operator produces a stream of batches. Next returns nil when the
// stream is exhausted. Batches may carry a deferred selection vector
// (storage.Batch.Sel); consumers either compose with it (Filter, the
// specialized join/group-by paths) or materialize it on first
// contiguous access. A returned batch is valid until the operator's
// next Next: the operator reuses its selection buffer then.
type Operator interface {
	// Names returns the qualified output column names.
	Names() []string
	// Kinds returns the output column kinds.
	Kinds() []storage.Kind
	// Next returns the next batch, or nil at end of stream.
	Next() (*storage.Batch, error)
}

// BatchHinter is an optional Operator refinement reporting an upper
// bound on the number of batches the operator will emit, so drains can
// pre-size their output relation.
type BatchHinter interface {
	BatchHint() int
}

// RelScan streams one or more materialized relations, optionally
// filtering them. It implements the scan, result-scan and cache-scan
// access paths; a scan over several relations is the union of
// cache-scans and chunk-accesses over a query's selected chunks
// (rewrite rule (1)) collapsed into one operator, streaming their
// batches in chunk order.
//
// A predicate is evaluated through the fused selection-vector kernels
// (expr.EvalSel): surviving rows travel as a deferred selection on the
// emitted batch instead of being gathered eagerly. Column-vs-constant
// range conjuncts are additionally checked against the owning
// relation's per-batch zone maps, so wholly-out-of-range batches are
// skipped without touching a single value.
type RelScan struct {
	names   []string
	kinds   []storage.Kind
	pred    expr.Expr
	morsels []scanMorsel
	bounds  []zoneBound
	// exact reports that pred is nothing but bounds: a batch whose zones
	// lie inside every bound qualifies whole, without evaluation.
	exact bool
	pos   int
	// srcCols maps output columns to source-relation columns (the
	// optimizer's projection pruning); nil is the identity. Emitted
	// batches share the selected column vectors — no copying.
	srcCols []int
	// skipped counts zone-pruned batches.
	skipped int
	// sb holds the selections the scan emits (see selBufs).
	sb *expr.SelBuf
}

// scanMorsel is one batch of one relation: the unit a scan emits.
type scanMorsel struct {
	rel *storage.Relation
	idx int
}

// zoneBound is a necessary [Lo, Hi] condition on one int64/time column,
// derived from a predicate conjunct; a batch whose zone is disjoint
// from it cannot contain qualifying rows.
type zoneBound struct {
	col    int
	lo, hi int64
}

// NewRelScan builds a scan over rel. If pred is non-nil it is bound
// against the schema and applied per batch.
func NewRelScan(rel *storage.Relation, names []string, kinds []storage.Kind, pred expr.Expr) (*RelScan, error) {
	return NewMultiRelScan([]*storage.Relation{rel}, names, kinds, pred)
}

// NewMultiRelScan builds one scan over the concatenation of several
// relations sharing a schema (the chunks a query selected), streamed in
// slice order.
func NewMultiRelScan(rels []*storage.Relation, names []string, kinds []storage.Kind, pred expr.Expr) (*RelScan, error) {
	return NewMultiRelScanCols(rels, names, kinds, pred, nil)
}

// NewMultiRelScanCols is NewMultiRelScan restricted to the source
// columns at srcCols (nil reads every column): names/kinds describe the
// narrowed output schema, and the predicate is bound against it. The
// zone maps of the source relations still drive batch skipping.
func NewMultiRelScanCols(rels []*storage.Relation, names []string, kinds []storage.Kind, pred expr.Expr, srcCols []int) (*RelScan, error) {
	s := &RelScan{names: names, kinds: kinds, srcCols: srcCols}
	for _, rel := range rels {
		for i := range rel.Batches() {
			s.morsels = append(s.morsels, scanMorsel{rel: rel, idx: i})
		}
	}
	if pred != nil {
		pred = expr.Clone(pred)
		if k, err := pred.Bind(names, kinds); err != nil {
			return nil, err
		} else if k != storage.KindBool {
			return nil, fmt.Errorf("physical: scan predicate is %v, not boolean", k)
		}
		s.pred = pred
		s.bounds, s.exact = zoneBounds(pred, kinds)
	}
	return s, nil
}

// zoneBounds extracts per-column range bounds from the top-level
// conjuncts of a bound predicate. Only col-op-const conjuncts over
// int64/time columns contribute; every other conjunct is simply not
// represented (the bounds are necessary conditions), and exact reports
// that none was left out (they are then sufficient too).
func zoneBounds(pred expr.Expr, kinds []storage.Kind) (bounds []zoneBound, exact bool) {
	conjs := expr.Conjuncts(pred)
	for _, conj := range conjs {
		cmp, ok := conj.(*expr.Cmp)
		if !ok {
			continue
		}
		col, op, k := cmp.L, cmp.Op, cmp.R
		cr, isCol := col.(*expr.ColRef)
		kc, isConst := k.(*expr.Const)
		if !isCol || !isConst {
			// Maybe written const-op-col.
			cr, isCol = cmp.R.(*expr.ColRef)
			kc, isConst = cmp.L.(*expr.Const)
			if !isCol || !isConst {
				continue
			}
			op = expr.FlipCmp(op)
		}
		if cr.Idx < 0 || cr.Idx >= len(kinds) {
			continue
		}
		switch kinds[cr.Idx] {
		case storage.KindInt64, storage.KindTime:
		default:
			continue
		}
		switch kc.K {
		case storage.KindInt64, storage.KindTime:
		default:
			continue
		}
		b := zoneBound{col: cr.Idx, lo: math.MinInt64, hi: math.MaxInt64}
		switch op {
		case expr.EQ:
			b.lo, b.hi = kc.I, kc.I
		case expr.LT:
			if kc.I == math.MinInt64 {
				continue
			}
			b.hi = kc.I - 1
		case expr.LE:
			b.hi = kc.I
		case expr.GT:
			if kc.I == math.MaxInt64 {
				continue
			}
			b.lo = kc.I + 1
		case expr.GE:
			b.lo = kc.I
		default: // NE prunes nothing
			continue
		}
		bounds = append(bounds, b)
	}
	return bounds, len(bounds) == len(conjs)
}

// Names implements Operator.
func (s *RelScan) Names() []string { return s.names }

// Kinds implements Operator.
func (s *RelScan) Kinds() []storage.Kind { return s.kinds }

// BatchHint implements BatchHinter.
func (s *RelScan) BatchHint() int { return len(s.morsels) }

// Skipped reports how many batches the zone maps pruned.
func (s *RelScan) Skipped() int { return s.skipped }

// lastConst implements constHinter over the zone maps of the batch the
// last Next returned.
func (s *RelScan) lastConst(cols []int) bool {
	m := s.morsels[s.pos-1]
	for _, col := range cols {
		if z := m.zone(col, s.srcCols); !z.Ok || z.Min != z.Max {
			return false
		}
	}
	return true
}

// Next implements Operator.
func (s *RelScan) Next() (*storage.Batch, error) {
	for s.pos < len(s.morsels) {
		m := s.morsels[s.pos]
		s.pos++
		// Zone pruning consults the source relation directly, so a
		// skipped batch costs no projection work.
		if s.pred != nil && s.pruneByZone(m) {
			s.skipped++
			continue
		}
		b := m.rel.Batches()[m.idx]
		if b.Len() == 0 {
			continue // a skipped segment's place in a chunk
		}
		if s.srcCols != nil {
			cols := make([]storage.Column, len(s.srcCols))
			for i, sc := range s.srcCols {
				cols[i] = b.Cols[sc]
			}
			b = storage.NewBatch(cols...)
		}
		if s.pred == nil || s.exact && morselInside(m, s.bounds, s.srcCols) {
			return b, nil
		}
		sel := takeSelBuf(&s.sb).EvalSel(s.pred, b, nil)
		if len(sel) == 0 {
			continue
		}
		if len(sel) == b.Len() {
			return b, nil
		}
		return b.WithSel(sel), nil
	}
	returnSelBuf(&s.sb)
	return nil, nil
}

// selBufs recycles the selection buffers of exhausted scans and filters
// across queries, as joinTablePool does the join tables, so that a
// query allocates none in steady state. An operator takes one at its
// first evaluation and returns it when its input is exhausted: no
// batch it returned is valid any more then. One that stops early leaves
// its buffer to the garbage collector.
var selBufs sync.Pool

// takeSelBuf returns *sb, first taking one from selBufs if it has none.
func takeSelBuf(sb **expr.SelBuf) *expr.SelBuf {
	if *sb == nil {
		if *sb, _ = selBufs.Get().(*expr.SelBuf); *sb == nil {
			*sb = new(expr.SelBuf)
		}
	}
	return *sb
}

// returnSelBuf hands *sb back to selBufs, if it holds one.
func returnSelBuf(sb **expr.SelBuf) {
	if *sb != nil {
		selBufs.Put(*sb)
		*sb = nil
	}
}

// pruneByZone reports that the morsel's batch cannot contain qualifying
// rows. Bound columns are indexes into the (possibly narrowed) output
// schema; the source relation's zone maps are consulted through the
// column mapping.
func (s *RelScan) pruneByZone(m scanMorsel) bool {
	for _, zb := range s.bounds {
		if m.zone(zb.col, s.srcCols).Disjoint(zb.lo, zb.hi) {
			return true
		}
	}
	return false
}

// zone returns the morsel's bound on an output column, consulting the
// source relation's zone maps through the (possibly nil) column mapping.
func (m scanMorsel) zone(col int, srcCols []int) storage.Zone {
	if srcCols != nil {
		col = srcCols[col]
	}
	return m.rel.Zone(m.idx, col)
}

// morselInside reports that the morsel's zones lie within every bound:
// each row satisfies all of them.
func morselInside(m scanMorsel, bounds []zoneBound, srcCols []int) bool {
	for _, zb := range bounds {
		if z := m.zone(zb.col, srcCols); !z.Ok || z.Min < zb.lo || z.Max > zb.hi {
			return false
		}
	}
	return true
}

// Filter applies a residual predicate to its input, composing with any
// deferred selection the input batch carries: a Filter above a
// filtering scan evaluates only the rows the scan selected and never
// gathers in between.
type Filter struct {
	in   Operator
	pred expr.Expr
	// sb holds the selections the filter emits (see selBufs).
	sb *expr.SelBuf
}

// NewFilter binds pred against the input schema.
func NewFilter(in Operator, pred expr.Expr) (*Filter, error) {
	pred = expr.Clone(pred)
	k, err := pred.Bind(in.Names(), in.Kinds())
	if err != nil {
		return nil, err
	}
	if k != storage.KindBool {
		return nil, fmt.Errorf("physical: filter predicate is %v, not boolean", k)
	}
	return &Filter{in: in, pred: pred}, nil
}

// Names implements Operator.
func (f *Filter) Names() []string { return f.in.Names() }

// Kinds implements Operator.
func (f *Filter) Kinds() []storage.Kind { return f.in.Kinds() }

// BatchHint implements BatchHinter.
func (f *Filter) BatchHint() int { return batchHint(f.in) }

// Next implements Operator.
func (f *Filter) Next() (*storage.Batch, error) {
	for {
		b, err := f.in.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			returnSelBuf(&f.sb)
			return nil, nil
		}
		base := b.Base()
		sel := takeSelBuf(&f.sb).EvalSel(f.pred, base, b.Sel())
		if len(sel) == 0 {
			continue
		}
		if len(sel) == base.Len() {
			return base, nil
		}
		return base.WithSel(sel), nil
	}
}

// Project evaluates scalar expressions into output columns.
type Project struct {
	in    Operator
	names []string
	kinds []storage.Kind
	exprs []expr.Expr
}

// NewProject binds the expressions against the input schema.
func NewProject(in Operator, names []string, exprs []expr.Expr) (*Project, error) {
	p := &Project{in: in, names: names}
	for _, e := range exprs {
		e = expr.Clone(e)
		k, err := e.Bind(in.Names(), in.Kinds())
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, e)
		p.kinds = append(p.kinds, k)
	}
	return p, nil
}

// Names implements Operator.
func (p *Project) Names() []string { return p.names }

// Kinds implements Operator.
func (p *Project) Kinds() []storage.Kind { return p.kinds }

// BatchHint implements BatchHinter.
func (p *Project) BatchHint() int { return batchHint(p.in) }

// Next implements Operator.
func (p *Project) Next() (*storage.Batch, error) {
	b, err := p.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	b = b.Materialize() // expressions evaluate positionally over contiguous columns
	cols := make([]storage.Column, len(p.exprs))
	for i, e := range p.exprs {
		cols[i] = e.Eval(b)
	}
	return storage.NewBatch(cols...), nil
}

// Empty is a zero-row operator with a schema; the rewrite of a scan
// over zero selected chunks.
type Empty struct {
	names []string
	kinds []storage.Kind
}

// NewEmpty builds an empty stream with the given schema.
func NewEmpty(names []string, kinds []storage.Kind) *Empty {
	return &Empty{names: names, kinds: kinds}
}

// Names implements Operator.
func (e *Empty) Names() []string { return e.names }

// Kinds implements Operator.
func (e *Empty) Kinds() []storage.Kind { return e.kinds }

// Next implements Operator.
func (e *Empty) Next() (*storage.Batch, error) { return nil, nil }

// IndexScan looks rows up through a hash index and streams the matches:
// the index-scan access path.
type IndexScan struct {
	names []string
	kinds []storage.Kind
	data  *storage.Batch
	rows  []int32
	done  bool
}

// NewIndexScan returns the rows of data (a flattened relation) whose
// key equals k in the given index.
func NewIndexScan(ix *index.HashIndex, data *storage.Batch, names []string, kinds []storage.Kind, k index.Key) *IndexScan {
	return &IndexScan{names: names, kinds: kinds, data: data, rows: ix.Lookup(k)}
}

// Names implements Operator.
func (s *IndexScan) Names() []string { return s.names }

// Kinds implements Operator.
func (s *IndexScan) Kinds() []storage.Kind { return s.kinds }

// BatchHint implements BatchHinter.
func (s *IndexScan) BatchHint() int { return 1 }

// Next implements Operator.
func (s *IndexScan) Next() (*storage.Batch, error) {
	if s.done || len(s.rows) == 0 {
		return nil, nil
	}
	s.done = true
	return s.data.Gather(s.rows), nil
}

// OpStats is what one operator did: the rows and batches it emitted
// and, for a pipeline breaker (Timed), the wall time of its Next calls
// up to its first batch: where it builds or folds.
type OpStats struct {
	Rows, Batches int64
	Time          time.Duration
	Timed         bool
}

// Profiled wraps an operator and records its OpStats; the executor
// wraps every operator, so each query carries its own profile. It
// forwards every optional interface its input has — BatchHinter,
// constHinter — so a profiled plan executes exactly as an unprofiled
// one. Only breakers read the clock: a read around every Next cost
// about 6 % of hot_scan's in-process latency.
type Profiled struct {
	in    Operator
	clock time.Time
	stats OpStats
}

// NewProfiled wraps in, timing it if it is a Breaker, as offsets from
// clock's monotonic reading (one clock call each).
func NewProfiled(in Operator, clock time.Time) *Profiled {
	_, timed := in.(Breaker)
	return &Profiled{in: in, clock: clock, stats: OpStats{Timed: timed}}
}

// Stats is what the operator did, once drained.
func (p *Profiled) Stats() OpStats { return p.stats }

// Names implements Operator.
func (p *Profiled) Names() []string { return p.in.Names() }

// Kinds implements Operator.
func (p *Profiled) Kinds() []storage.Kind { return p.in.Kinds() }

// BatchHint implements BatchHinter.
func (p *Profiled) BatchHint() int { return batchHint(p.in) }

// lastConst implements constHinter for the input's last batch.
func (p *Profiled) lastConst(cols []int) bool {
	ch, ok := p.in.(constHinter)
	return ok && ch.lastConst(cols)
}

// now reads the clock for a timed call, and nothing for another.
func (p *Profiled) now(timed bool) time.Duration {
	if !timed {
		return 0
	}
	return time.Since(p.clock)
}

// Next implements Operator.
func (p *Profiled) Next() (*storage.Batch, error) {
	timed := p.stats.Timed && p.stats.Batches == 0
	t0 := p.now(timed)
	b, err := p.in.Next()
	p.stats.Time += p.now(timed) - t0
	if b != nil {
		p.stats.Rows += int64(b.Len())
		p.stats.Batches++
	}
	return b, err
}
