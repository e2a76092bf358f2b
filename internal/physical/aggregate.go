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
// The whole input folds in row order into one accumulator, so every
// SUM, AVG and STDDEV is the row-order fold of its group's values.
// Groups are emitted in ascending key order.
type HashAggregate struct {
	in        Operator
	groupCols []int
	aggs      []AggColumn
	names     []string
	kinds     []storage.Kind
	argKinds  []storage.Kind
	// fastKey marks grouping by int64-backed columns only (or none);
	// differential tests clear it to force the composite path.
	fastKey bool
	// exprArgs marks that some aggregate argument is a computed
	// expression (not a bare column reference): those evaluate
	// positionally over a whole batch, so a sparsely selected input is
	// materialized first instead of folded through its selection.
	exprArgs bool
	// drain holds the check that cancels the fold when the query's
	// deadline expires mid-fold.
	drain DrainOpts

	done bool
}

// SetDrain implements Breaker: the fold checks o.Check before every
// pull; its group table charges no quota.
func (h *HashAggregate) SetDrain(o DrainOpts) { h.drain = o }

// NewHashAggregate binds the aggregate arguments against the input.
func NewHashAggregate(in Operator, groupCols []int, aggs []AggColumn) (*HashAggregate, error) {
	h := &HashAggregate{in: in, groupCols: groupCols}
	inNames, inKinds := in.Names(), in.Kinds()
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
// never reallocated — between queries.
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

// Next implements Operator: it folds the whole input, then emits every
// group as one batch.
func (h *HashAggregate) Next() (*storage.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	acc := h.newAcc()
	defer acc.release()
	if err := acc.drain(h.in, h.drain.Check); err != nil {
		return nil, err
	}
	return acc.render(), nil
}

// aggAcc accumulates the groups of the input into a pooled group table.
type aggAcc struct {
	h       *HashAggregate
	argCols []storage.Column // per-batch scratch, reused
	g       *groupTable
	// global is the global group's one run: id 0, ending at the batch's
	// last position.
	global [2]int32
}

func (h *HashAggregate) newAcc() *aggAcc {
	a := &aggAcc{h: h, argCols: make([]storage.Column, len(h.aggs)), g: getGroupTable()}
	// The global group is the empty int key, whatever fastKey says (the
	// differential tests clear it).
	a.g.x.reset(h.fastKey || len(h.groupCols) == 0, len(h.groupCols))
	if len(h.groupCols) == 0 {
		// It exists before any row (and without one: an aggregate over
		// empty input renders one all-default row).
		a.g.x.intID(intKey{}, true)
		a.g.grow(len(h.aggs))
	}
	return a
}

// release returns the accumulator's pooled group table. The accumulator
// must not be used afterwards.
func (a *aggAcc) release() {
	groupTablePool.Put(a.g)
	a.g = nil
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
	for i, ag := range a.h.aggs {
		a.argCols[i] = nil
		if ag.Arg != nil {
			a.argCols[i] = ag.Arg.Eval(b)
		}
	}
	return a.argCols
}

// fold accumulates one batch (the accumulator is the batch's single
// consumer).
func (a *aggAcc) fold(b *storage.Batch) error {
	h := a.h
	if h.exprArgs {
		// Computed arguments evaluate over every base row; with a
		// sparse selection it is cheaper to gather the survivors first.
		b = b.Materialize()
	}
	base, sel := b.Base(), b.Sel()
	argCols := a.evalArgs(base)
	nagg := len(h.aggs)
	n := b.Len()
	var ids, ends []int32
	if len(h.groupCols) > 0 {
		var err error
		if ids, ends, err = a.g.x.resolve(base, h.groupCols, sel, true, false); err != nil {
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
	return nil
}

// render emits the accumulated groups as one batch, in ascending key
// order: integer slots first, then strings, on both key shapes.
func (a *aggAcc) render() *storage.Batch {
	h, x := a.h, &a.g.x
	nagg := len(h.aggs)
	n := x.len()
	perm := make([]int32, n)
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
