package physical

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sommelier/internal/expr"
	"sommelier/internal/index"
	"sommelier/internal/storage"
)

// AggFuncID mirrors plan.AggFunc without importing the plan package
// (physical sits below plan in the dependency order).
type AggFuncID uint8

// Aggregate function identifiers.
const (
	AggCount AggFuncID = iota
	AggSum
	AggAvg
	AggMin
	AggMax
	AggStddev
)

// AggColumn describes one aggregate to compute.
type AggColumn struct {
	Func AggFuncID
	Arg  expr.Expr // nil only for COUNT(*)
	Name string
}

// aggState is one aggregate's state for one group: n (n > 0 is "seen")
// and only what its function renders — SUM over an int64 argument the
// row-order iSum, other SUMs and AVG the row-order float64 sum, MIN and
// MAX min or max (iMin or iMax), STDDEV Welford's mean and m2.
type aggState struct {
	n                int64
	sum              float64
	mean, m2         float64
	min, max         float64
	iSum, iMin, iMax int64
}

// merge folds another partial state into s: the parallel-aggregation
// combine step. Counts and sums add, extremes compare, and STDDEV's mean
// and m2 combine by the pairwise Welford merge (Chan et al.).
func (s *aggState) merge(o aggState) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
	s.sum += o.sum
	s.iSum += o.iSum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.iMin, s.iMax = min(s.iMin, o.iMin), max(s.iMax, o.iMax)
}

// HashAggregate groups its input and computes aggregates per group; a
// single global group when groupCols is empty.
//
// Rows resolve to dense group ids through a keyIndex, run by run — the
// group of a run of equal adjacent keys is looked up once — and every
// aggregate then folds its argument column, through the batch's deferred
// selection, one run of equal group ids at a time (foldArg). GROUP BY
// F.station over clustered actual data therefore hashes a few keys per
// batch, and a global aggregate none. Grouping by int64/time columns
// resolves on the raw values; other shapes go through the composite
// index.Key.
//
// Under a degree of parallelism (SetParallel), and when the input can
// Split, the input's morsel ranges are claimed by a worker pool, each
// range folded into its own thread-local partial-aggregate table; the
// partials are merged in range order (so results are deterministic for
// a given DOP) and rendered once. Groups are emitted in ascending key
// order either way, exactly as the serial path.
type HashAggregate struct {
	in        Operator
	groupCols []int
	aggs      []AggColumn
	names     []string
	kinds     []storage.Kind
	inNames   []string
	inKinds   []storage.Kind
	argKinds  []storage.Kind
	// fastKey marks grouping by int64-backed columns only (or none);
	// differential tests clear it to force the composite path.
	fastKey bool
	// exprArgs marks that some aggregate argument is a computed
	// expression (not a bare column reference): those evaluate
	// positionally over a whole batch, so a sparsely selected input is
	// materialized first instead of folded through its selection.
	exprArgs bool
	// sharedArgs are the bound aggregate arguments every accumulator may
	// share: set only when all arguments are bare column references
	// (stateless, safe to evaluate concurrently without cloning).
	sharedArgs []expr.Expr
	// dop is the parallelism granted by the executor.
	dop int
	// check cancels the accumulation drain — a pipeline breaker — when
	// the query's deadline expires mid-fold.
	check func() error

	done bool
}

// SetParallel implements ParallelHinter: it grants the aggregation up
// to dop workers. It must be called before the first Next.
func (h *HashAggregate) SetParallel(dop int) { h.dop = dop }

// SetCheck implements CheckHinter for the accumulation drain.
func (h *HashAggregate) SetCheck(check func() error) { h.check = check }

// NewHashAggregate binds the aggregate arguments against the input.
func NewHashAggregate(in Operator, groupCols []int, aggs []AggColumn) (*HashAggregate, error) {
	h := &HashAggregate{in: in, groupCols: groupCols}
	inNames, inKinds := in.Names(), in.Kinds()
	h.inNames, h.inKinds = inNames, inKinds
	for _, gc := range groupCols {
		if gc < 0 || gc >= len(inNames) {
			return nil, fmt.Errorf("physical: group column %d out of range", gc)
		}
		h.names = append(h.names, inNames[gc])
		h.kinds = append(h.kinds, inKinds[gc])
	}
	for _, a := range aggs {
		var argKind storage.Kind
		if a.Arg != nil {
			a.Arg = expr.Clone(a.Arg)
			k, err := a.Arg.Bind(inNames, inKinds)
			if err != nil {
				return nil, err
			}
			if k == storage.KindString || k == storage.KindBool {
				return nil, fmt.Errorf("physical: aggregate %s over %v", a.Name, k)
			}
			argKind = k
		} else if a.Func != AggCount {
			return nil, fmt.Errorf("physical: aggregate %s requires an argument", a.Name)
		}
		h.aggs = append(h.aggs, a)
		h.argKinds = append(h.argKinds, argKind)
		h.names = append(h.names, a.Name)
		h.kinds = append(h.kinds, aggKind(a.Func, argKind))
		if a.Arg != nil {
			if _, isCol := a.Arg.(*expr.ColRef); !isCol {
				h.exprArgs = true
			}
		}
	}
	h.fastKey = len(groupCols) <= len(intKey{})
	for _, gc := range groupCols {
		h.fastKey = h.fastKey && isIntKeyKind(inKinds[gc])
	}
	if !h.exprArgs {
		// Every argument is a bare (stateless) column reference: all
		// accumulators can share the bound expressions without cloning.
		h.sharedArgs = make([]expr.Expr, len(h.aggs))
		for i, a := range h.aggs {
			h.sharedArgs[i] = a.Arg
		}
	}
	return h, nil
}

func aggKind(f AggFuncID, arg storage.Kind) storage.Kind {
	switch f {
	case AggCount:
		return storage.KindInt64
	case AggAvg, AggStddev:
		return storage.KindFloat64
	case AggSum:
		if arg == storage.KindInt64 {
			return storage.KindInt64
		}
		return storage.KindFloat64
	default:
		return arg
	}
}

// Names implements Operator.
func (h *HashAggregate) Names() []string { return h.names }

// Kinds implements Operator.
func (h *HashAggregate) Kinds() []storage.Kind { return h.kinds }

// foldArg folds aggregate f's argument column, of kind k, over a
// batch's rows — positions in sel when the batch carries a selection —
// into slot i of the group states: run r of (ids, ends), positions
// [ends[r-1], ends[r]), belongs to group ids[r]. A kernel picked once
// per batch folds only what f renders, one run at a time, each state
// seeing its rows in batch order.
func foldArg(states []aggState, nagg, i int, f AggFuncID, k storage.Kind, arg storage.Column, ids, ends, sel []int32) {
	switch {
	case arg == nil: // COUNT(*) reads no column
		foldRuns[int64](states[i:], nagg, f, k, nil, ids, ends, sel)
	case k == storage.KindFloat64:
		foldRuns(states[i:], nagg, f, k, storage.Float64s(arg), ids, ends, sel)
	default:
		foldRuns(states[i:], nagg, f, k, storage.Int64s(arg), ids, ends, sel)
	}
}

// foldRuns picks foldArg's kernel for one argument type.
func foldRuns[T float64 | int64](states []aggState, nagg int, f AggFuncID, k storage.Kind, vals []T, ids, ends, sel []int32) {
	switch f {
	case AggCount:
		for r := range ids {
			foldRun(states, nagg, ids, ends, r)
		}
	case AggSum, AggAvg:
		if f == AggSum && k == storage.KindInt64 {
			sumRuns[int64](states, nagg, vals, ids, ends, sel)
		} else {
			sumRuns[float64](states, nagg, vals, ids, ends, sel)
		}
	case AggMin, AggMax:
		extremeRuns(states, nagg, f == AggMax, vals, ids, ends, sel)
	case AggStddev:
		welfordRuns(states, nagg, vals, ids, ends, sel)
	}
}

// foldRun counts run r into its group's state: the state, the run's
// positions [lo, hi) and the state's count before them.
func foldRun(states []aggState, nagg int, ids, ends []int32, r int) (st *aggState, lo, hi int, seen int64) {
	st = &states[int(ids[r])*nagg]
	lo, hi, seen = int(runStart(ends, r)), int(ends[r]), st.n
	st.n += int64(hi - lo)
	return st, lo, hi, seen
}

// sumRuns folds the row-order sum into sum (S float64) or iSum (S int64).
func sumRuns[S, T float64 | int64](states []aggState, nagg int, vals []T, ids, ends, sel []int32) {
	for r := range ids {
		st, lo, hi, _ := foldRun(states, nagg, ids, ends, r)
		sp, ok := any(&st.sum).(*S)
		if !ok {
			sp = any(&st.iSum).(*S)
		}
		*sp = sum(*sp, vals, sel, lo, hi)
	}
}

// sum adds positions [lo, hi) of a column to s, in row order.
func sum[T, S float64 | int64](s S, vals []T, sel []int32, lo, hi int) S {
	if sel == nil {
		for _, v := range vals[lo:hi] {
			s += S(v)
		}
		return s
	}
	for _, r := range sel[lo:hi] {
		s += S(vals[r])
	}
	return s
}

// extremeRuns folds the minimum (maximum when isMax) as `!seen || v < m`
// (v > m) row by row: a leading NaN sticks, later NaNs never win.
func extremeRuns[T float64 | int64](states []aggState, nagg int, isMax bool, vals []T, ids, ends, sel []int32) {
	for r := range ids {
		st, lo, hi, seen := foldRun(states, nagg, ids, ends, r)
		mp := bound[T](st, isMax)
		m := *mp
		for p := lo; p < hi; p++ {
			if v := vals[at(sel, p)]; p == lo && seen == 0 || isMax && v > m || !isMax && v < m {
				m = v
			}
		}
		*mp = m
	}
}

// bound is st's min (max when isMax) field of T: min/max or iMin/iMax.
func bound[T float64 | int64](st *aggState, isMax bool) *T {
	fp, ip := &st.min, &st.iMin
	if isMax {
		fp, ip = &st.max, &st.iMax
	}
	if p, ok := any(fp).(*T); ok {
		return p
	}
	return any(ip).(*T)
}

// welfordRuns folds mean and m2 by the Welford recurrence.
func welfordRuns[T float64 | int64](states []aggState, nagg int, vals []T, ids, ends, sel []int32) {
	for r := range ids {
		st, lo, hi, k := foldRun(states, nagg, ids, ends, r)
		mean, m2 := st.mean, st.m2
		for p := lo; p < hi; p++ {
			v := float64(vals[at(sel, p)])
			k++
			d := v - mean
			mean += d / float64(k)
			m2 += d * (v - mean)
		}
		st.mean, st.m2 = mean, m2
	}
}

// at is the row of position p: sel[p] under a selection, else p.
func at(sel []int32, p int) int {
	if sel != nil {
		return int(sel[p])
	}
	return p
}

// groupTable is the dense group table of one accumulator: nagg states
// per key id of x, in first-seen order. Tables are pooled and reset —
// never reallocated — between the ranges of a partitioned aggregation
// and between queries, which is what erases the per-range accumulator
// churn of deterministic partial aggregation.
type groupTable struct {
	x      keyIndex
	states []aggState
}

var groupTablePool sync.Pool

func getGroupTable() *groupTable {
	g, _ := groupTablePool.Get().(*groupTable)
	if g == nil {
		g = &groupTable{}
	}
	g.states = g.states[:0]
	return g
}

// grow adds zeroed states for the groups x gained since the last call
// (so a reset table behaves exactly like a fresh one).
func (g *groupTable) grow(nagg int) {
	for len(g.states) < g.x.len()*nagg {
		g.states = append(g.states, aggState{})
	}
}

// aggSplitMax asks the input for as many range parts as its grain
// allows. The part layout is therefore a function of the morsel list
// alone — never of the degree of parallelism — which is what makes the
// merged floating-point results identical at every DOP (see Next).
const aggSplitMax = 1 << 20

// Next implements Operator.
//
// Whenever the input can split, accumulation is range-partitioned even
// in serial execution: each range folds into its own partial
// accumulator and the partials merge in range order. Because the ranges
// are fixed by the input's morsel list and the merge order is fixed,
// the floating-point results are bitwise identical at every degree of
// parallelism — a query answered serially under a 16-client burst
// matches the same query answered with every core while the server was
// idle. (Integer sums below 2^53 are exact and do not even depend on the
// ranges.) The whole-input fold remains only for non-splittable inputs.
//
// The guarantee is bought with per-range overhead even at DOP=1 (one
// accumulator, cloned argument expressions and a merge per ~4-batch
// range instead of one whole-input fold): a few percent on the serial
// grouped-aggregate microbenchmark. Gating partitioning on DOP>1 would
// reclaim it at the price of answers that drift across DOPs and load.
func (h *HashAggregate) Next() (*storage.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	if sp, ok := h.in.(Splitter); ok {
		parts, err := sp.Split(aggSplitMax)
		if err != nil {
			return nil, err
		}
		if parts != nil {
			return h.foldParts(parts)
		}
	}
	acc, err := h.newAcc()
	if err != nil {
		return nil, err
	}
	if err := acc.drain(h.in, h.check); err != nil {
		acc.release()
		return nil, err
	}
	out := acc.render()
	acc.release()
	return out, nil
}

// foldParts accumulates each range part into its own partial and merges
// the partials strictly in range order, using up to the granted DOP
// workers. Partials are folded into the final accumulator as soon as
// the in-order merge frontier reaches them and freed immediately, so
// peak memory holds the final table plus at most one out-of-order
// window of partials (≈ DOP), not one partial per part — the merge
// SEQUENCE is identical to a fully deferred merge, preserving the
// bitwise determinism guarantee.
func (h *HashAggregate) foldParts(parts []Operator) (*storage.Batch, error) {
	final, err := h.newAcc()
	if err != nil {
		return nil, err
	}
	var (
		mu     sync.Mutex
		done   = make([]*aggAcc, len(parts))
		merged int
	)
	err = runParts(len(parts), h.dop, h.check, func(i int) error {
		acc, err := h.newAcc()
		if err == nil {
			err = acc.drain(parts[i], h.check)
		}
		if err != nil {
			if acc != nil {
				acc.release()
			}
			return err
		}
		mu.Lock()
		done[i] = acc
		for merged < len(done) && done[merged] != nil {
			final.merge(done[merged])
			done[merged].release()
			done[merged] = nil
			merged++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		// Partials that finished but were never merged still hold pooled
		// scratch; runParts has returned, so no goroutine touches done.
		for _, acc := range done {
			if acc != nil {
				acc.release()
			}
		}
		final.release()
		return nil, err
	}
	out := final.render()
	final.release()
	return out, nil
}

// aggAcc accumulates (partial) groups for one input partition, into a
// pooled group table. An accumulator with computed arguments owns
// clones of the argument expressions — expression memoization is
// per-goroutine state — while bare column references are shared unbound
// of state.
type aggAcc struct {
	h       *HashAggregate
	args    []expr.Expr
	argCols []storage.Column // per-batch scratch, reused
	g       *groupTable
	// global is the global group's one run: id 0, ending at the batch's
	// last position.
	global [2]int32
}

func (h *HashAggregate) newAcc() (*aggAcc, error) {
	a := &aggAcc{h: h}
	if h.sharedArgs != nil {
		a.args = h.sharedArgs
	} else {
		a.args = make([]expr.Expr, len(h.aggs))
		for i, ag := range h.aggs {
			if ag.Arg == nil {
				continue
			}
			e := expr.Clone(ag.Arg)
			if _, err := e.Bind(h.inNames, h.inKinds); err != nil {
				return nil, err
			}
			a.args[i] = e
		}
	}
	a.argCols = make([]storage.Column, len(h.aggs))
	a.g = getGroupTable()
	// The global group is the empty int key, whatever fastKey says (the
	// differential tests clear it).
	a.g.x.reset(h.fastKey || len(h.groupCols) == 0, len(h.groupCols))
	if len(h.groupCols) == 0 {
		// It exists before any row (and without one: an aggregate over
		// empty input renders one all-default row).
		a.g.x.intID(intKey{}, true)
		a.g.grow(len(h.aggs))
	}
	return a, nil
}

// release returns the accumulator's pooled group table. The accumulator
// must not be used afterwards.
func (a *aggAcc) release() {
	if a.g != nil {
		groupTablePool.Put(a.g)
		a.g = nil
	}
}

// drain folds every batch of in into the accumulator.
func (a *aggAcc) drain(in Operator, check func() error) error {
	for {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		b, err := in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := a.fold(b); err != nil {
			return err
		}
	}
}

// evalArgs evaluates the aggregate arguments once per batch, into the
// accumulator's reusable scratch slice.
func (a *aggAcc) evalArgs(b *storage.Batch) []storage.Column {
	for i, e := range a.args {
		if e != nil {
			a.argCols[i] = e.Eval(b)
		} else {
			a.argCols[i] = nil
		}
	}
	return a.argCols
}

// fold accumulates one batch, recycling a pooled input batch once its
// rows are folded (the accumulator is the batch's single consumer).
func (a *aggAcc) fold(b *storage.Batch) error {
	h := a.h
	if h.exprArgs {
		// Computed arguments evaluate over every base row; with a
		// sparse selection it is cheaper to gather the survivors first.
		b = b.Materialize()
	}
	base, sel := b.DetachSel()
	argCols := a.evalArgs(base)
	nagg := len(h.aggs)
	n := base.Len()
	if sel != nil {
		n = len(sel)
	}
	var ids, ends []int32
	if len(h.groupCols) > 0 {
		var err error
		if ids, ends, err = a.g.x.resolve(base, h.groupCols, sel, true, false); err != nil {
			storage.PutSel(sel)
			storage.PutBatch(base)
			return err
		}
		a.g.grow(nagg)
	} else {
		// The global group is one run of every position.
		a.global[1] = int32(n)
		ids, ends = a.global[:1], a.global[1:]
	}
	for i, arg := range argCols {
		foldArg(a.g.states, nagg, i, h.aggs[i].Func, h.argKinds[i], arg, ids, ends, sel)
	}
	if len(h.groupCols) > 0 {
		storage.PutSel(ids)
		storage.PutSel(ends)
	}
	storage.PutSel(sel)
	storage.PutBatch(base)
	return nil
}

// merge folds another accumulator's partial groups into a. New groups
// are adopted by value; shared groups merge state-wise. Callers merge
// partials in range order, so the result is deterministic.
func (a *aggAcc) merge(o *aggAcc) {
	nagg := len(a.h.aggs)
	for oid := 0; oid < o.g.x.len(); oid++ {
		os := o.g.states[oid*nagg : (oid+1)*nagg]
		known := a.g.x.len()
		id := int(a.g.x.adopt(&o.g.x, oid))
		if id == known {
			a.g.states = append(a.g.states, os...)
			continue
		}
		as := a.g.states[id*nagg : (id+1)*nagg]
		for i := range as {
			as[i].merge(os[i])
		}
	}
}

// render emits the accumulated groups as one batch, in ascending key
// order: integer slots first, then strings, on both key shapes.
func (a *aggAcc) render() *storage.Batch {
	h, x := a.h, &a.g.x
	nagg := len(h.aggs)
	n := x.len()
	// The permutation shares the selection-vector pool only when it
	// is batch-sized; a huge group count must not pin an oversized
	// array under the pool's uniformly small vectors.
	var perm []int32
	fromPool := n <= storage.BatchSize
	if fromPool {
		perm = storage.GetSel(n)[:n]
	} else {
		perm = make([]int32, n)
	}
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		if x.ints {
			return slices.Compare(x.ikeys[perm[i]][:], x.ikeys[perm[j]][:]) < 0
		}
		return keyLess(x.skeys[perm[i]], x.skeys[perm[j]])
	})
	builders := h.newBuilders(n)
	for _, gi := range perm {
		// Group values come back out of the key slots in column order:
		// strings from the S slots, everything else from the I slots.
		var iv intKey
		var sv [2]string
		if x.ints {
			iv = x.ikeys[gi]
		} else {
			k := x.skeys[gi]
			iv, sv = intKey{k.I0, k.I1, k.I2}, [2]string{k.S0, k.S1}
		}
		ii, si := 0, 0
		for c := range h.groupCols {
			if sb, ok := builders[c].(*storage.StringBuilder); ok {
				sb.Append(sv[si])
				si++
			} else {
				appendNum(builders[c], iv[ii], 0)
				ii++
			}
		}
		h.appendAggs(builders, a.g.states[int(gi)*nagg:(int(gi)+1)*nagg])
	}
	if fromPool {
		storage.PutSel(perm)
	}
	return finishBuilders(builders)
}

func (h *HashAggregate) newBuilders(nGroups int) []storage.Builder {
	builders := make([]storage.Builder, len(h.names))
	for i, k := range h.kinds {
		builders[i] = storage.NewBuilder(k, nGroups)
	}
	return builders
}

func finishBuilders(builders []storage.Builder) *storage.Batch {
	cols := make([]storage.Column, len(builders))
	for i, b := range builders {
		cols[i] = b.Finish()
	}
	return storage.NewBatch(cols...)
}

// appendAggs renders one group's aggregate results into the builders.
func (h *HashAggregate) appendAggs(builders []storage.Builder, states []aggState) {
	for i, a := range h.aggs {
		st := states[i]
		var iv int64
		var fv float64
		switch a.Func {
		case AggCount:
			iv = st.n
		case AggSum:
			iv, fv = st.iSum, st.sum
		case AggAvg:
			if fv = st.sum / float64(st.n); st.n == 0 {
				fv = math.NaN()
			}
		case AggStddev:
			if st.n >= 2 {
				fv = math.Sqrt(st.m2 / float64(st.n-1))
			}
		case AggMin:
			iv, fv = st.iMin, st.min
		case AggMax:
			iv, fv = st.iMax, st.max
		}
		appendNum(builders[len(h.groupCols)+i], iv, fv)
	}
}

// appendNum appends iv to an int64-backed builder, fv to a float one:
// typed, where AppendAny would box (and allocate) a value per group.
func appendNum(b storage.Builder, iv int64, fv float64) {
	switch b := b.(type) {
	case *storage.Int64Builder:
		b.Append(iv)
	case *storage.TimeBuilder:
		b.Append(iv)
	case *storage.Float64Builder:
		b.Append(fv)
	}
}

func keyLess(a, b index.Key) bool {
	return cmp.Or(cmp.Compare(a.I0, b.I0), cmp.Compare(a.I1, b.I1), cmp.Compare(a.I2, b.I2),
		cmp.Compare(a.S0, b.S0), cmp.Compare(a.S1, b.S1)) < 0
}
