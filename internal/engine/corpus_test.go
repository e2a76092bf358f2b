package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"sommelier/internal/mseed"
	"sommelier/internal/seisgen"
)

// The oracle's archive and query corpus: genSegRepo's multi-segment
// chunks over 2010-01-01 and 02, the band archive's edge stations over
// 2010-01-03 and 04, the fixed query bags every earlier differential
// suite ran, and the generator that adds seeded queries over every
// schema.

// genSegRepo generates a repository whose chunks span several batches
// and segments, so that loading a subset of a chunk's segments changes
// the scan's batch list.
func genSegRepo(t testing.TB) (string, *seisgen.Manifest) {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(2)
	cfg.SamplesPerFile = 40000
	man, err := seisgen.Generate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dir, man
}

// bandDay is the first day of the band archive, on a window boundary
// and after genSegRepo's two days.
var bandDay = time.Date(2010, 1, 3, 0, 0, 0, 0, time.UTC)

// bandSegment places a segment: its start as an offset from the day's
// midnight and its sample count.
type bandSegment struct {
	at time.Duration
	n  int
}

// bandStations are the band archive's stations: a rate, a shift of
// every segment and the segments of each day. At 0.2 Hz the day holds
// segments that start exactly on an hour boundary, end exactly on one,
// span three windows, are shorter than a window, straddle a boundary
// by one sample, hold a single sample, and end at midnight, with gaps
// between them all; at 0.3 Hz (a period of 3.33… s, the counts scaled
// to the same spans) and shifted by 17 min 1 ns, the same layout
// crosses boundaries off the sample grid. At 1 GHz segments of a few
// samples put the band's edges on a window start: a last sample on a
// boundary 1 ns before the end time, and a first sample 1 ns before a
// boundary.
var bandStations = []struct {
	station, channel string
	rate             float64
	shift            time.Duration
	layout           []bandSegment
}{
	{"FIAM", "HHZ", 0.2, 0, bandLayout},
	{"ISK", "BHE", 0.3, 17*time.Minute + 1, bandLayout},
	{"AQU", "HHZ", 1e9, 0, []bandSegment{
		{time.Hour - 2, 3},         // last sample at 01:00, ends 1 ns later
		{2*time.Hour - 1000, 1000}, // ends at 02:00
		{3 * time.Hour, 1},
		{4*time.Hour - 1, 2}, // first sample 1 ns before 04:00
	}},
}

var bandLayout = []bandSegment{
	{0, 300},                              // 00:00 on a boundary, 25 min
	{100 * time.Minute, 240},              // 01:40, ends 02:00 on a boundary
	{150 * time.Minute, 1440},             // 02:30–04:30, three windows
	{310 * time.Minute, 120},              // 05:10, 10 min
	{7*time.Hour - 5e9, 2},                // 06:59:55 and 07:00:00
	{440 * time.Minute, 1},                // 07:20, one sample
	{22*time.Hour + 30*time.Minute, 1080}, // 22:30, ends at midnight
}

// writeBandArchive writes two days of bandStations into dir.
func writeBandArchive(t *testing.T, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(35))
	for _, st := range bandStations {
		for day := 0; day < 2; day++ {
			date := bandDay.AddDate(0, 0, day)
			f := &mseed.File{Header: mseed.FileHeader{
				Network: "IV", Station: st.station, Location: "00", Channel: st.channel,
				Quality: "D", Encoding: mseed.EncodingDeltaVarint, ByteOrder: "LE",
			}}
			for id, seg := range st.layout {
				n := seg.n
				if st.rate < 1 {
					n = int(float64(n) * st.rate / 0.2)
				}
				samples := make([]int32, n)
				for i := range samples {
					samples[i] = int32(rng.Intn(2001) - 1000)
				}
				f.Segments = append(f.Segments, mseed.Segment{
					Header: mseed.SegmentHeader{
						ID: int32(id), StartTime: date.Add(seg.at + st.shift).UnixNano(),
						SampleRate: st.rate, SampleCount: int32(n),
					},
					Samples: samples,
				})
			}
			name := fmt.Sprintf("IV.%s.%s.%s.msl", st.station, st.channel, date.Format("2006.002"))
			if err := mseed.WriteFile(filepath.Join(dir, name), f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// oracleQuery is one query of the corpus: its SQL and the values of its
// ? parameters.
type oracleQuery struct {
	sql  string
	args []any
}

// lit renders a timestamp literal.
func lit(ts time.Time) string { return "'" + ts.Format("2006-01-02T15:04:05.000") + "'" }

// window generates one windowdataview query: a random conjunction of
// F, S, D and H predicates over stations, times from g.at and segment
// IDs below segs (some through parameters), under aggregates with and
// without GROUP BY, or a row projection with ORDER BY and LIMIT.
func (g *qgen) window(stations []string, segs int) oracleQuery {
	if g.rng.Intn(3) > 0 {
		st := stations[g.rng.Intn(len(stations))]
		g.conj = append(g.conj, "F.station = "+g.param("'"+st+"'", st))
	}
	span := func(col string) {
		lo := g.at()
		hi := lo.Add(time.Duration(1+g.rng.Intn(36)) * 20 * time.Minute)
		g.conj = append(g.conj, col+" >= "+g.param(lit(lo), lo), col+" < "+g.param(lit(hi), hi))
	}
	g.maybe(2, func() { span("D.sample_time") })
	g.maybe(2, func() { span("H.window_start_ts") })
	g.maybe(4, func() {
		ts := g.at()
		g.conj = append(g.conj, "S.start_time >= "+g.param(lit(ts), ts))
	})
	g.maybe(4, func() {
		id := int64(g.rng.Intn(segs))
		g.conj = append(g.conj, "S.segment_id <> "+g.param(fmt.Sprint(id), id))
	})
	g.maybe(3, func() { g.value("H.window_max_val", ">", -800, 800) })
	g.maybe(4, func() { g.value("D.sample_value", "<", -500, 500) })
	groups := []string{"F.station", "H.window_start_ts", "S.segment_id", "D.window_ts"}
	var sql string
	switch g.rng.Intn(3) {
	case 0:
		sql = "SELECT COUNT(*), SUM(D.sample_value), AVG(D.sample_value), MIN(D.sample_time), MAX(D.sample_value), STDDEV(D.sample_value) FROM windowdataview" + g.where()
	case 1:
		k := groups[g.rng.Intn(len(groups))]
		sql = fmt.Sprintf("SELECT %s, COUNT(*), AVG(D.sample_value), MAX(H.window_mean_val) FROM windowdataview%s GROUP BY %s", k, g.where(), k)
		if g.rng.Intn(2) == 0 {
			sql += " ORDER BY " + k
		}
	default:
		keys := []string{"D.sample_value DESC", "D.sample_time", "H.window_start_ts DESC, D.sample_time", "S.segment_id, D.sample_value"}
		sql = fmt.Sprintf("SELECT D.sample_time, D.sample_value, H.window_start_ts, H.window_std_dev, S.segment_id FROM windowdataview%s ORDER BY %s LIMIT %d",
			g.where(), keys[g.rng.Intn(len(keys))], 1+g.rng.Intn(60))
	}
	return oracleQuery{sql: sql, args: g.args}
}

// bandQueries generates n windowdataview queries over the band
// archive's stations and days from seed.
func bandQueries(seed int64, n int) []oracleQuery {
	rng := rand.New(rand.NewSource(seed))
	at := func() time.Time {
		return bandDay.Add(time.Duration(rng.Intn(2*24*12)) * 5 * time.Minute)
	}
	stations := make([]string, len(bandStations))
	for i, st := range bandStations {
		stations[i] = st.station
	}
	out := make([]oracleQuery, n)
	for i := range out {
		out[i] = (&qgen{rng: rng, at: at}).window(stations, len(bandLayout))
	}
	return out
}

// optDiffQueries spans the taxonomy (T1/T2/T4/T5) plus projection
// arithmetic, grouping, ordering and a parenthesized disjunction, so
// every optimizer rule has something to rewrite.
func optDiffQueries() []string {
	return []string{
		`SELECT station, COUNT(*) AS n FROM F WHERE station = 'FIAM' GROUP BY station`,
		`SELECT window_start_ts, window_max_val FROM H
		   WHERE window_station = 'FIAM'
		     AND window_start_ts >= '2010-01-01T00:00:00.000'
		     AND window_start_ts < '2010-01-02T00:00:00.000'
		   ORDER BY window_start_ts`,
		`SELECT AVG(D.sample_value), COUNT(*) AS n FROM dataview
		   WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		     AND D.sample_time >= '2010-01-01T00:00:00.000'
		     AND D.sample_time < '2010-01-02T00:00:00.000'`,
		`SELECT COUNT(*) AS n, MIN(D.sample_value), MAX(D.sample_value) FROM windowdataview
		   WHERE F.station = 'FIAM'
		     AND H.window_start_ts >= '2010-01-01T00:00:00.000'
		     AND H.window_start_ts < '2010-01-02T00:00:00.000'
		     AND H.window_std_dev >= 0`,
		`SELECT D.sample_time, D.sample_value * 2 + 1 AS v FROM dataview
		   WHERE F.station = 'ISK' AND (F.channel = 'HHZ' OR F.channel = 'BHE')
		     AND D.sample_time < '2010-01-01T06:00:00.000'
		   ORDER BY D.sample_time DESC LIMIT 7`,
		`SELECT COUNT(*) AS n FROM F WHERE 1 + 1 = 2 AND station = 'ISK'`,
		// Single-table computed projection over a filtered scan.
		`SELECT window_max_val * 2 + 1 AS v, window_start_ts FROM H
		   WHERE window_station = 'AQU' AND window_std_dev >= 0`,
		`SELECT window_start_ts, window_max_val - window_min_val AS spread, window_std_dev FROM H
		   WHERE window_station = 'ISK' AND window_max_val > window_min_val
		   ORDER BY window_start_ts`,
	}
}

// stressQueries is a mixed workload: a point lookup (one hour of one
// station), range scans over actual data, metadata aggregates and
// DMd-backed queries — the taxonomy under concurrent fire.
func stressQueries() []string {
	q := tQueries()
	return []string{
		q[1], q[2], q[3], q[4], q[5],
		// Point-ish: a single two-hour slice of one station.
		`SELECT AVG(D.sample_value) FROM dataview
		   WHERE F.station = 'ISK' AND F.channel = 'BHE'
		     AND D.sample_time >= '2010-01-01T06:00:00.000'
		     AND D.sample_time < '2010-01-01T08:00:00.000'`,
		// Range over a second station, exercising disjoint chunk sets.
		`SELECT COUNT(*) AS n, MAX(D.sample_value) AS mx FROM dataview
		   WHERE F.station = 'CERA'
		     AND D.sample_time >= '2010-01-01T00:00:00.000'
		     AND D.sample_time < '2010-01-02T00:00:00.000'`,
	}
}

// chaosBag is a deterministic bag of chunk-touching queries using only
// order-insensitive aggregates (COUNT/MIN/MAX).
func chaosBag() []string {
	stations := []string{"FIAM", "ISK", "AQU", "CERA"}
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	fmtT := func(ts time.Time) string { return ts.Format("2006-01-02T15:04:05.000") }
	rng := rand.New(rand.NewSource(7))
	var bag []string
	for i := 0; i < 12; i++ {
		st := stations[rng.Intn(len(stations))]
		lo := base.Add(time.Duration(rng.Intn(48)) * time.Hour)
		hi := lo.Add(time.Duration(1+rng.Intn(20)) * time.Hour)
		if i%2 == 0 {
			bag = append(bag, fmt.Sprintf(`
				SELECT COUNT(*) AS n, MIN(D.sample_value), MAX(D.sample_value) FROM dataview
				WHERE F.station = '%s'
				  AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, fmtT(lo), fmtT(hi)))
		} else {
			bag = append(bag, fmt.Sprintf(`
				SELECT COUNT(*) AS n, MAX(D.sample_value) FROM windowdataview
				WHERE F.station = '%s'
				  AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s'
				  AND H.window_std_dev >= 0`,
				st, fmtT(lo), fmtT(hi)))
		}
	}
	return bag
}

// pruneBag is optDiffQueries, stressQueries and chaosBag plus the
// shapes join-output pruning treats specially: a grouped COUNT(*)
// (nothing read from the join but the group column), a bare COUNT(*)
// (the join keeps one probe column for the row count), build-side-only
// and mixed projections, ORDER BY + LIMIT over a join, and a row
// export.
func pruneBag() []string {
	bag := append(append(optDiffQueries(), stressQueries()...), chaosBag()...)
	return append(bag,
		`SELECT F.station, AVG(D.sample_value), STDDEV(D.sample_value), COUNT(*) FROM dataview
		   WHERE D.sample_time < '2010-01-02T00:00:00.000' GROUP BY F.station ORDER BY F.station`,
		`SELECT F.station, COUNT(*) FROM dataview GROUP BY F.station ORDER BY F.station`,
		`SELECT COUNT(*) FROM dataview WHERE D.sample_time >= '2010-01-01T12:00:00.000'`,
		`SELECT F.station, F.channel FROM dataview
		   WHERE D.sample_value > 0 AND D.sample_time < '2010-01-01T00:30:00.000'`,
		`SELECT S.segment_id, F.station, D.sample_value / 2 FROM dataview
		   WHERE F.station = 'AQU' AND D.sample_time < '2010-01-01T03:00:00.000'`,
		`SELECT D.sample_value FROM dataview WHERE F.station = 'FIAM'
		   ORDER BY D.sample_value DESC LIMIT 10`,
		`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = 'CERA'`,
		`SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md
		   WHERE F.station = 'FIAM' AND H.window_start_ts < '2010-01-01T12:00:00.000'`,
	)
}

// streamingQueries is optDiffQueries plus shapes where streaming does
// real work: wide projections with no aggregate, and ORDER BY + LIMIT
// (the topk path).
func streamingQueries() []string {
	return append(optDiffQueries(),
		`SELECT D.sample_time, D.sample_value FROM dataview
		   WHERE F.station = 'FIAM' AND D.sample_time < '2010-01-02T00:00:00.000'`,
		`SELECT D.sample_time, D.sample_value FROM dataview
		   WHERE F.station = 'ISK' LIMIT 10`,
		`SELECT D.sample_value, D.sample_time FROM dataview
		   WHERE F.station = 'AQU' ORDER BY D.sample_value DESC, D.sample_time LIMIT 25`,
		`EXPLAIN SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'`,
	)
}

// warmBag is the tier bag: T1 metadata, T2 derived windows, T4 and T5
// lazy-ingestion aggregates — every tier and every table the cache
// hierarchy touches.
func warmBag() []string {
	q := tQueries()
	return []string{q[1], q[2], q[4], q[5]}
}

// segmentQueries is pruneBag plus every distinct query shape of the
// service benchmark — one-minute and two-second probes inside one
// segment, whole-day exports, the hot scans, the T1–T3 point lookups —
// plus float aggregates over a strict subset of a chunk's segments,
// whose rounding depends on the rows they fold, and scans of D without
// a metadata branch.
func segmentQueries(man *seisgen.Manifest) []string {
	at := func(ns int64) string {
		return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000")
	}
	qs := pruneBag()
	for i, f := range man.Files {
		if i%2 == 0 {
			continue // one day of each station
		}
		st, segs := f.Header.Station, f.Segments
		mid, last := segs[len(segs)/2].StartTime, segs[len(segs)-1].StartTime
		day := mid - mid%int64(24*time.Hour)
		qs = append(qs,
			fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(mid), at(mid+int64(time.Minute))),
			fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(segs[0].StartTime+int64(time.Second)), at(segs[0].StartTime+3*int64(time.Second))),
			fmt.Sprintf(`SELECT STDDEV(D.sample_value), AVG(D.sample_value * 0.1), COUNT(*) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(segs[1%len(segs)].StartTime), at(last)),
			fmt.Sprintf(`SELECT AVG(D.sample_value) FROM windowdataview WHERE F.station = '%s' AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s' AND H.window_max_val > -1000000000 AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(mid), at(last), at(mid), at(last)),
			fmt.Sprintf(`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(day), at(day+int64(24*time.Hour))),
			fmt.Sprintf(`SELECT D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s' ORDER BY D.sample_value DESC LIMIT 10`,
				st, at(mid), at(last)),
			fmt.Sprintf(`SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md WHERE F.station = '%s' AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s'`,
				st, at(day), at(mid)),
		)
	}
	return append(qs,
		`SELECT F.station, AVG(D.sample_value), COUNT(*) FROM dataview WHERE D.sample_time >= '2010-01-02T00:00:00.000' AND D.sample_time < '2010-01-03T00:00:00.000' GROUP BY F.station ORDER BY F.station`,
		`SELECT COUNT(*), SUM(D.sample_value), STDDEV(D.sample_value) FROM D`,
		`SELECT D.segment_id, COUNT(*) FROM D WHERE D.sample_time < '2010-01-01T04:00:00.000' GROUP BY D.segment_id ORDER BY D.segment_id`,
	)
}

// everySequence opens every oracle sequence: the evaluation's T1–T5
// queries, which every approach then answers, and a plan, which every
// cell with every rule on compares.
func everySequence() []string {
	q := tQueries()
	return []string{q[1], q[2], q[3], q[4], q[5], `EXPLAIN SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'`}
}

// fixedCorpus is every bag above, each query once, everySequence first.
func fixedCorpus(man *seisgen.Manifest) []oracleQuery {
	var out []oracleQuery
	seen := make(map[string]bool)
	add := func(q oracleQuery) {
		if k := fmt.Sprint(q.sql, q.args); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	for _, bag := range [][]string{everySequence(), segmentQueries(man), streamingQueries(), warmBag()} {
		for _, sql := range bag {
			add(oracleQuery{sql: sql})
		}
	}
	for _, q := range bandQueries(7, 60) {
		add(q)
	}
	return out
}
