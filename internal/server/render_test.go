package server

// The render core against its oracles: encoding/json over boxed rows
// (the renderer this package used to have, kept here as the reference)
// for JSON and NDJSON, DecodeColumnar for SOMW, and time.Format for
// timestamps.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/storage"
)

// oracleValue boxes one cell the way the reflective renderer did.
func oracleValue(c storage.Column, r int) any {
	if tc, ok := c.(*storage.TimeColumn); ok {
		return time.Unix(0, tc.Value(r)).UTC().Format(timeLayout)
	}
	v := storage.ValueAt(c, r)
	if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return nil
	}
	return v
}

func oracleRows(b *storage.Batch) [][]any {
	rows := make([][]any, b.Len())
	for ri := range rows {
		row := make([]any, b.Width())
		for ci, c := range b.Cols {
			row[ci] = oracleValue(c, ri)
		}
		rows[ri] = row
	}
	return rows
}

// oracleEncode is one json.Encoder line with HTML escaping off.
func oracleEncode(t testing.TB, out *bytes.Buffer, v any) {
	t.Helper()
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -22, 1234.5678, 1e-7, 9.999999e-7, 1e-6, 1.5e-6,
	1e20, 9.999999999999999e20, 1e21, 1.5e21, 1e-9, 1.234e-10, 5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 60, -(1 << 62), 1e15, 1e15 + 0.5, 123456789012345680,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Pi, 1.0 / 3, 100, 1e6, 0.1, 0.000001234,
}

var edgeStrings = []string{
	"", "FIAM", `say "hi"`, `back\slash`, "tab\there", "nl\nrl\r", "\b\f", "\x00\x01\x1f", "\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029para", "caf\u00e9 \u65e5\u672c \U0001F377",
	"bad\xffutf8", "\xc3", "trunc\xe2\x80", "\xed\xa0\x80", "a\xc0\xafb", "ok\u2027\u202a",
}

var edgeInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53, -1 << 31}

// edgeTimes spans the int64 range (1677 to 2262), both sides of the
// epoch, leap days and the end of a day.
var edgeTimes = []int64{
	0, -1, 1, -1e9, 1e9 - 1, -1e9 - 1, 999999, 1e6, -999999, -1e6, -86400e9, 86400e9 - 1,
	math.MinInt64, math.MaxInt64,
	time.Date(1969, 12, 31, 23, 59, 59, 999e6, time.UTC).UnixNano(),
	time.Date(1900, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano(),
	time.Date(1900, 2, 28, 23, 59, 59, 999999999, time.UTC).UnixNano(),
	time.Date(2000, 2, 29, 12, 0, 0, 0, time.UTC).UnixNano(),
	time.Date(2012, 2, 29, 23, 59, 59, 999e6, time.UTC).UnixNano(),
	time.Date(2100, 2, 28, 23, 59, 59, 0, time.UTC).UnixNano(),
	time.Date(2100, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano(),
	time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(),
	time.Date(2010, 12, 31, 23, 59, 59, 999e6, time.UTC).UnixNano(),
	time.Date(2262, 4, 11, 23, 47, 16, 854e6, time.UTC).UnixNano(),
	time.Date(1677, 9, 21, 0, 12, 43, 146e6, time.UTC).UnixNano(),
}

func pick[T any](rng *rand.Rand, edge []T, random func() T) T {
	if rng.Intn(3) == 0 {
		return edge[rng.Intn(len(edge))]
	}
	return random()
}

// randomColumn builds an n-row column of the kind, mixing edge cases
// with random values.
func randomColumn(rng *rand.Rand, k storage.Kind, n int) storage.Column {
	switch k {
	case storage.KindInt64:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = pick(rng, edgeInts, func() int64 { return rng.Int63() >> uint(rng.Intn(64)) * int64(1-2*rng.Intn(2)) })
		}
		return storage.NewInt64Column(vals)
	case storage.KindTime:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = pick(rng, edgeTimes, func() int64 { return int64(rng.Uint64()) })
		}
		return storage.NewTimeColumn(vals)
	case storage.KindFloat64:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = pick(rng, edgeFloats, func() float64 {
				if rng.Intn(2) == 0 {
					return math.Float64frombits(rng.Uint64())
				}
				return float64(rng.Intn(4000)-2000) / float64(int(1)<<uint(rng.Intn(3)))
			})
		}
		return storage.NewFloat64Column(vals)
	case storage.KindBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		return storage.NewBoolColumn(vals)
	default:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = pick(rng, edgeStrings, func() string {
				b := make([]byte, rng.Intn(12))
				rng.Read(b)
				return string(b)
			})
		}
		return storage.NewStringColumn(vals)
	}
}

var allKinds = []storage.Kind{storage.KindInt64, storage.KindFloat64, storage.KindBool, storage.KindString, storage.KindTime}

// renderCase is one result to push through every format.
type renderCase struct {
	name    string
	names   []string
	kinds   []storage.Kind
	batches func() []*storage.Batch // fresh batches per format: sinks consume them
}

func edgeBatch() *storage.Batch {
	n := len(edgeFloats)
	cycle := func(i, m int) int { return i % m }
	ints, times, bools, strs := make([]int64, n), make([]int64, n), make([]bool, n), make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = edgeInts[cycle(i, len(edgeInts))]
		times[i] = edgeTimes[cycle(i, len(edgeTimes))]
		bools[i] = i%2 == 0
		strs[i] = edgeStrings[cycle(i, len(edgeStrings))]
	}
	return storage.NewBatch(storage.NewInt64Column(ints), storage.NewFloat64Column(edgeFloats),
		storage.NewBoolColumn(bools), storage.NewStringColumn(strs), storage.NewTimeColumn(times))
}

func renderCases() []renderCase {
	all := []string{"i", "f <&> g", "b", `s"q`, "t"}
	cases := []renderCase{
		{"edge", all, allKinds, func() []*storage.Batch { return []*storage.Batch{edgeBatch()} }},
		{"zero rows", all, allKinds, func() []*storage.Batch { return nil }},
		{"zero columns", []string{}, []storage.Kind{}, func() []*storage.Batch { return nil }},
		{"empty batch between", all, allKinds, func() []*storage.Batch {
			return []*storage.Batch{edgeBatch().Slice(0, 3), edgeBatch().Slice(0, 0), edgeBatch().Slice(3, 5)}
		}},
		// A slice of a wide dictionary: more entries than rows, so the
		// strings are escaped per row, not per entry.
		{"dictionary larger than batch", all, allKinds, func() []*storage.Batch {
			return []*storage.Batch{edgeBatch().Slice(4, 7)}
		}},
		{"selection", all, allKinds, func() []*storage.Batch {
			identity := make([]int32, len(edgeFloats))
			for i := range identity {
				identity[i] = int32(i)
			}
			return []*storage.Batch{edgeBatch().WithSel([]int32{0, 2, 3, 11, 12, 30}), edgeBatch().WithSel(identity)}
		}},
	}
	for seed := int64(1); seed <= 8; seed++ {
		shape := rand.New(rand.NewSource(seed))
		kinds := make([]storage.Kind, 1+shape.Intn(6))
		names := make([]string, len(kinds))
		for i := range kinds {
			kinds[i] = allKinds[shape.Intn(len(allKinds))]
			names[i] = fmt.Sprintf("c%d", i)
		}
		sizes := []int{1 + shape.Intn(300), 1 + shape.Intn(40), 1}
		cases = append(cases, renderCase{fmt.Sprintf("random %d", seed), names, kinds, func() []*storage.Batch {
			rng := rand.New(rand.NewSource(seed * 1000))
			var out []*storage.Batch
			for _, n := range sizes {
				cols := make([]storage.Column, len(kinds))
				for i, k := range kinds {
					cols[i] = randomColumn(rng, k, n)
				}
				out = append(out, storage.NewBatch(cols...))
			}
			return out
		}})
	}
	return cases
}

var testStats = QueryStats{QueryType: 4, ElapsedUS: 1234, ChunksSelected: 2, SampleFraction: 1, TimeoutMS: 30000}
var testWarnings = []engine.Warning{{Table: "D", Chunk: 7, Reason: `fetch "a&b" <failed>`}}

// streamBody runs batches through a streamSink of the format and
// returns what reached the client. A buffered body must reach it only
// once the drain has ended, with its Content-Length.
func streamBody(t testing.TB, format wireFormat, c renderCase, warnings []engine.Warning) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	sink := newStreamSink(rec, format)
	defer putRenderer(sink.r)
	sink.SetSchema(c.names, c.kinds)
	for _, b := range c.batches() {
		if err := sink.Push(b); err != nil {
			t.Fatal(err)
		}
		if sink.buffered && (rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "") {
			t.Fatalf("buffered body written before the drain ended: %q", rec.Body.Bytes())
		}
	}
	if err := sink.finish(testStats, warnings); err != nil {
		t.Fatal(err)
	}
	if cl := rec.Header().Get("Content-Length"); sink.buffered && cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

func TestRenderMatchesEncodingJSON(t *testing.T) {
	for _, c := range renderCases() {
		for wi, warnings := range [][]engine.Warning{nil, testWarnings} {
			t.Run(fmt.Sprintf("%s/warnings=%d", c.name, wi), func(t *testing.T) {
				// The oracle sees contiguous batches, as every renderer does.
				var flat []*storage.Batch
				total := 0
				for _, b := range c.batches() {
					b = b.Materialize()
					flat = append(flat, b)
					total += b.Len()
				}
				footer := resultFooter{RowCount: total, Stats: testStats, Warnings: warnings}

				// Plain JSON: one object, the rows of every batch in one array.
				allRows := [][]any{}
				for _, b := range flat {
					allRows = append(allRows, oracleRows(b)...)
				}
				var want bytes.Buffer
				oracleEncode(t, &want, QueryResponse{Columns: c.names, Rows: allRows, RowCount: total, Stats: testStats, Warnings: warnings})
				if got := streamBody(t, jsonFormat{}, c, warnings); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("JSON differs\n got %s\nwant %s", got, want.Bytes())
				}

				// NDJSON: header, one rows line per pushed batch, footer.
				want.Reset()
				oracleEncode(t, &want, columnsHeader{Columns: c.names})
				for _, b := range flat {
					oracleEncode(t, &want, struct {
						Rows [][]any `json:"rows"`
					}{oracleRows(b)})
				}
				oracleEncode(t, &want, footer)
				if got := streamBody(t, ndjsonFormat{}, c, warnings); !bytes.Equal(got, want.Bytes()) {
					t.Errorf("NDJSON differs\n got %s\nwant %s", got, want.Bytes())
				}

				// SOMW: the reference decoder returns the cells bit for bit.
				got, err := DecodeColumnar(bytes.NewReader(streamBody(t, somwFormat{}, c, warnings)))
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Columns) != fmt.Sprint(c.names) || fmt.Sprint(got.Kinds) != fmt.Sprint(c.kinds) {
					t.Errorf("SOMW schema %v %v, want %v %v", got.Columns, got.Kinds, c.names, c.kinds)
				}
				if got.RowCount != total || len(got.Rows) != total || got.Stats != testStats || !reflect.DeepEqual(got.Warnings, warnings) {
					t.Errorf("SOMW footer: row_count %d, %d rows, stats %+v, warnings %v", got.RowCount, len(got.Rows), got.Stats, got.Warnings)
				}
				ri := 0
				for _, b := range flat {
					for r := 0; r < b.Len(); r++ {
						for ci, col := range b.Cols {
							want, cell := storage.ValueAt(col, r), got.Rows[ri][ci]
							wf, isFloat := want.(float64)
							if isFloat && math.Float64bits(wf) == math.Float64bits(cell.(float64)) {
								continue
							}
							if isFloat || want != cell {
								t.Fatalf("SOMW row %d col %d = %v, want %v", ri, ci, cell, want)
							}
						}
						ri++
					}
				}
			})
		}
	}
}

// TestWireTimeMatchesTimeFormat pins the hand-rolled timestamp to the
// time package over the edge cases, every day of the bench archive's
// range, and random instants across the whole int64 range.
func TestWireTimeMatchesTimeFormat(t *testing.T) {
	check := func(ns int64) {
		t.Helper()
		if got, want := WireTime(ns), time.Unix(0, ns).UTC().Format(timeLayout); got != want {
			t.Fatalf("WireTime(%d) = %q, want %q", ns, got, want)
		}
	}
	for _, ns := range edgeTimes {
		check(ns)
	}
	rng := rand.New(rand.NewSource(1))
	start := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for day := int64(0); day < 96; day++ {
		check(start + day*86400e9)
		check(start + day*86400e9 - 1)
		for i := 0; i < 100; i++ {
			check(start + day*86400e9 + rng.Int63n(86400e9))
		}
	}
	for i := 0; i < 200000; i++ {
		check(int64(rng.Uint64()))
	}
	// Every day boundary from 1677 to 2262.
	const day int64 = 86400e9
	for d := math.MinInt64/day + 1; d < math.MaxInt64/day; d++ {
		check(d * day)
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range edgeFloats {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want := []byte("null")
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			var err error
			if want, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range edgeStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		oracleEncode(t, &want, s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want.Bytes())
		}
	})
}

// hostileColumnar are SOMW streams whose counts claim far more than
// their bytes hold: over one int64 column "x", a 'B' record of 2^63
// rows (no int holds it), an 'E' message of 2^62 bytes, and a 'B'
// record of 2^28 rows in 15 bytes.
func hostileColumnar(t testing.TB) [][]byte {
	kind, err := toWireKind(storage.KindInt64)
	if err != nil {
		t.Fatal(err)
	}
	header := append(wireMagic[:], wireVersion, 1, 1, 'x', kind)
	stream := func(rec byte, count uint64) []byte {
		return binary.AppendUvarint(append(slices.Clone(header), rec), count)
	}
	return [][]byte{stream('B', 1<<63), stream('E', 1<<62), stream('B', 1<<28)}
}

// decodeAlloc decodes body, returning the error and the bytes the
// decode allocated.
func decodeAlloc(body []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeColumnar(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// decodeAllocLimit bounds what decoding n bytes may allocate: the
// reader's buffer and one chunk allocated ahead of its bytes, then a
// constant per input byte.
func decodeAllocLimit(n int) uint64 { return 1<<20 + 512*uint64(n) }

// TestDecodeColumnarBoundsCounts: a count the stream's bytes cannot
// back fails the decode as soon as the bytes run out, having allocated
// in proportion to the bytes, not the count.
func TestDecodeColumnarBoundsCounts(t *testing.T) {
	for i, body := range hostileColumnar(t) {
		grew, err := decodeAlloc(body)
		if err == nil {
			t.Errorf("stream %d (%d bytes) decoded", i, len(body))
		}
		if grew > decodeAllocLimit(len(body)) {
			t.Errorf("stream %d (%d bytes) allocated %d bytes", i, len(body), grew)
		}
	}
}

// FuzzDecodeColumnar: DecodeColumnar reads bytes off the network.
// Whatever they are, it returns a result or an error — it never panics
// — and allocates in proportion to the bytes it was given.
func FuzzDecodeColumnar(f *testing.F) {
	for _, c := range renderCases() {
		for _, warnings := range [][]engine.Warning{nil, testWarnings} {
			f.Add(streamBody(f, somwFormat{}, c, warnings))
		}
	}
	for _, body := range hostileColumnar(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if grew, _ := decodeAlloc(body); grew > decodeAllocLimit(len(body)) {
			t.Fatalf("%d input bytes allocated %d", len(body), grew)
		}
	})
}

// discardResponse is a ResponseWriter that keeps nothing, so the
// allocation test and the benchmark see the renderer alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// exportBatch is the bench export's shape: 4 096 rows of (time,
// float64), 50 ms apart, integral sample counts.
func exportBatch() *storage.Batch {
	times, vals := make([]int64, storage.BatchSize), make([]float64, storage.BatchSize)
	start := time.Date(2010, 1, 1, 0, 40, 52, 896e6, time.UTC).UnixNano()
	rng := rand.New(rand.NewSource(7))
	for i := range times {
		times[i] = start + int64(i)*50e6
		vals[i] = float64(rng.Intn(4000) - 2000)
	}
	return storage.NewBatch(storage.NewTimeColumn(times), storage.NewFloat64Column(vals))
}

var exportSchema = struct {
	names []string
	kinds []storage.Kind
}{[]string{"D.sample_time", "D.sample_value"}, []storage.Kind{storage.KindTime, storage.KindFloat64}}

// TestPushAllocationCeiling: pushing a full batch allocates a handful
// of times at most, not once per cell.
func TestPushAllocationCeiling(t *testing.T) {
	b := exportBatch()
	for _, format := range []wireFormat{jsonFormat{}, ndjsonFormat{}, somwFormat{}} {
		sink := newStreamSink(&discardResponse{h: http.Header{}}, format)
		sink.SetSchema(exportSchema.names, exportSchema.kinds)
		if err := sink.Push(b); err != nil { // grow the buffer once
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := sink.Push(b); err != nil {
				t.Fatal(err)
			}
		})
		putRenderer(sink.r)
		if allocs > 4 {
			t.Errorf("%T: %v allocations per 4096-row Push, want <= 4", format, allocs)
		}
	}
}

// BenchmarkRender renders 10 export batches (40 960 rows) per
// iteration in each format and reports the cost per row.
func BenchmarkRender(b *testing.B) {
	const batches = 10
	batch := exportBatch()
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*storage.BatchSize), "ns/row")
	}
	for _, f := range []struct {
		name   string
		format wireFormat
	}{{"json", jsonFormat{}}, {"ndjson", ndjsonFormat{}}, {"somw", somwFormat{}}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink := newStreamSink(&discardResponse{h: http.Header{}}, f.format)
				sink.SetSchema(exportSchema.names, exportSchema.kinds)
				for j := 0; j < batches; j++ {
					if err := sink.Push(batch); err != nil {
						b.Fatal(err)
					}
				}
				sink.finish(testStats, nil)
				putRenderer(sink.r)
			}
			report(b)
		})
	}
}
