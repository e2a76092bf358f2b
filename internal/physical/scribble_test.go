package physical

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// scribbleBatch is one batch of the scribbler's data: its rows and the
// strict subset of them its selection names.
type scribbleBatch struct {
	key, ts []int64
	val     []float64
	sel     []int32
}

// scribbler is a source that owns its batch memory as an operator may
// under the memory rule: a batch is valid until the next Next. With
// scribble set, every Next first overwrites the selection buffer and
// the columns of the batch it returned before, to their full capacity,
// and then writes the next batch into the same memory. Without it,
// every batch is fresh. Every batch carries a selection that drops some
// rows, so a consumer that keeps rows has to resolve it. A consumer
// that keeps any part of a batch past the next Next reads the scribble.
type scribbler struct {
	data     []scribbleBatch
	scribble bool
	pos      int
	key, ts  []int64
	val      []float64
	sel      []int32
}

func newScribbler(data []scribbleBatch, scribble bool) *scribbler {
	return &scribbler{
		data: data, scribble: scribble,
		key: make([]int64, 0, storage.BatchSize), ts: make([]int64, 0, storage.BatchSize),
		val: make([]float64, 0, storage.BatchSize), sel: make([]int32, 0, storage.BatchSize),
	}
}

func (s *scribbler) Names() []string { return []string{"D.key", "D.ts", "D.val"} }

func (s *scribbler) Kinds() []storage.Kind {
	return []storage.Kind{storage.KindInt64, storage.KindTime, storage.KindFloat64}
}

func (s *scribbler) Next() (*storage.Batch, error) {
	if s.pos == len(s.data) {
		return nil, nil
	}
	d := s.data[s.pos]
	s.pos++
	if !s.scribble {
		return storage.NewBatch(storage.NewInt64Column(slices.Clone(d.key)),
			storage.NewTimeColumn(slices.Clone(d.ts)),
			storage.NewFloat64Column(slices.Clone(d.val))).WithSel(slices.Clone(d.sel)), nil
	}
	// Row 0 stays a valid index, so a kept selection reads wrong rows
	// instead of failing.
	s.sel = rewrite(s.sel, d.sel, 0)
	s.key = rewrite(s.key, d.key, -7)
	s.ts = rewrite(s.ts, d.ts, -1)
	s.val = rewrite(s.val, d.val, -1e300)
	return storage.NewBatch(storage.NewInt64Column(s.key), storage.NewTimeColumn(s.ts),
		storage.NewFloat64Column(s.val)).WithSel(s.sel), nil
}

// rewrite fills buf's whole capacity with junk and then writes src into
// its front.
func rewrite[T int32 | int64 | float64](buf, src []T, junk T) []T {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = junk
	}
	return buf[:copy(buf, src)]
}

// scribbleData is seven batches of clustered keys 0..19, ascending
// times and signed values, one of them a full BatchSize, each with a
// selection of about 70 % of its rows.
func scribbleData() []scribbleBatch {
	rng := rand.New(rand.NewSource(37))
	var out []scribbleBatch
	var row int64
	for _, n := range []int{4096, 1000, 3000, 37, 4096, 2500, 2} {
		var b scribbleBatch
		for i := 0; i < n; i++ {
			b.key = append(b.key, row/300%20)
			b.ts = append(b.ts, 1_000_000+row*1000)
			b.val = append(b.val, math.Round(rng.NormFloat64()*1000)/8)
			if rng.Intn(10) < 7 || i == 0 {
				b.sel = append(b.sel, int32(i))
			}
			row++
		}
		if len(b.sel) == n {
			b.sel = b.sel[:n-1]
		}
		out = append(out, b)
	}
	return out
}

// scribbleDim is a build side over the keys 0..19: each key copies
// times, with a time band [lo, hi) per row and a weight.
func scribbleDim(copies int) *storage.Relation {
	var key, lo, hi []int64
	var w []float64
	for c := 0; c < copies; c++ {
		for k := int64(0); k < 20; k++ {
			key = append(key, k)
			lo = append(lo, 1_000_000+(k*400+int64(c)*50)*1000)
			hi = append(hi, 1_000_000+(k*400+int64(c)*50+9000)*1000)
			w = append(w, float64(k*10+int64(c)))
		}
	}
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(storage.NewInt64Column(key), storage.NewTimeColumn(lo),
		storage.NewTimeColumn(hi), storage.NewFloat64Column(w)))
	return rel
}

var (
	scribbleDimNames = []string{"S.key", "S.lo", "S.hi", "S.w"}
	scribbleDimKinds = []storage.Kind{storage.KindInt64, storage.KindTime, storage.KindTime, storage.KindFloat64}
)

// TestOperatorsCopyWhatTheyKeep: every consumer of a batch either uses
// it within the call that received it or copies what it keeps, so the
// answer of a pipeline over the scribbler equals the same pipeline's
// over a source that never reuses memory. The pipelines cover Filter,
// the hash join probe on both paths (unique keys as run columns;
// duplicate keys and a time band gathered), grouped and global
// aggregation, top-k, Collect and a streaming drain, the last two
// through the drain's Coalescer.
func TestOperatorsCopyWhatTheyKeep(t *testing.T) {
	data := scribbleData()
	must := func(op Operator, err error) Operator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	dim := func(copies int) Operator {
		return must(NewRelScan(scribbleDim(copies), scribbleDimNames, scribbleDimKinds, nil))
	}
	positive := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	aggs := []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggSum, Arg: expr.Col("D.val"), Name: "s"},
		{Func: AggMin, Arg: expr.Col("D.ts"), Name: "t"},
		{Func: AggMax, Arg: expr.Col("D.val"), Name: "m"},
	}
	pipelines := []struct {
		name  string
		build func(src Operator) Operator
	}{
		{"collect", func(src Operator) Operator { return src }},
		{"filter", func(src Operator) Operator { return must(NewFilter(src, positive)) }},
		{"join unique", func(src Operator) Operator {
			return must(NewHashJoin(dim(1), src, []int{0}, []int{0}))
		}},
		{"join unique under filter", func(src Operator) Operator {
			return must(NewFilter(must(NewHashJoin(dim(1), src, []int{0}, []int{0})), positive))
		}},
		{"join duplicates", func(src Operator) Operator {
			return must(NewHashJoin(dim(2), src, []int{0}, []int{0}))
		}},
		{"join band", func(src Operator) Operator {
			j, err := NewHashJoin(dim(2), src, []int{0}, []int{0})
			if err == nil {
				err = j.SetBand(5, 1, 2, 1)
			}
			return must(j, err)
		}},
		{"group by", func(src Operator) Operator { return must(NewHashAggregate(src, []int{0}, aggs)) }},
		{"group by over join", func(src Operator) Operator {
			return must(NewHashAggregate(must(NewHashJoin(dim(1), src, []int{0}, []int{0})), []int{0}, aggs))
		}},
		{"global", func(src Operator) Operator { return must(NewHashAggregate(src, nil, aggs)) }},
		{"global over filter", func(src Operator) Operator {
			return must(NewHashAggregate(must(NewFilter(src, positive)), nil, aggs))
		}},
		{"topk", func(src Operator) Operator { return must(NewTopK(src, []SortKey{{Col: 2, Desc: true}}, 25)) }},
		{"topk over join", func(src Operator) Operator {
			return must(NewTopK(must(NewHashJoin(dim(1), src, []int{0}, []int{0})), []SortKey{{Col: 6}, {Col: 3}}, 25))
		}},
	}
	for _, p := range pipelines {
		for _, stream := range []bool{false, true} {
			answer := func(scribble bool) [][]any {
				op := p.build(newScribbler(data, scribble))
				if !stream {
					rel, err := Collect(op, DrainOpts{})
					if err != nil {
						t.Fatal(err)
					}
					return rowsOf(rel)
				}
				var sink rowSink
				if err := Drain(op, &sink, DrainOpts{}); err != nil {
					t.Fatal(err)
				}
				return sink.rows
			}
			label := p.name + map[bool]string{false: " collected", true: " streamed"}[stream]
			want := answer(false)
			if len(want) == 0 {
				t.Fatalf("%s: no rows to compare", label)
			}
			sameRows(t, answer(true), want, label)
		}
	}
}

// rowSink is a streaming sink that serializes each pushed batch into
// rows before Push returns, as a wire encoder does.
type rowSink struct{ rows [][]any }

func (s *rowSink) Push(b *storage.Batch) error {
	rel := storage.NewRelation()
	rel.Append(b)
	s.rows = append(s.rows, rowsOf(rel)...)
	return nil
}
