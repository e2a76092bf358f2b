package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sommelier/internal/mseed"
	"sommelier/internal/registrar"
)

// bandDay is the first day of the band archive, on a window boundary.
var bandDay = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

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

// writeBandArchive writes two days of bandStations into a new
// directory.
func writeBandArchive(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
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
	return dir
}

// bandQuery is one generated windowdataview query and its arguments.
type bandQuery struct {
	sql  string
	args []any
}

// bandQueries generates n windowdataview queries from seed: random
// conjunctions of F, S, D and H predicates (some through parameters),
// under aggregates with and without GROUP BY, or a row projection with
// ORDER BY and LIMIT.
func bandQueries(seed int64, n int) []bandQuery {
	rng := rand.New(rand.NewSource(seed))
	at := func() time.Time {
		return bandDay.Add(time.Duration(rng.Intn(2*24*12)) * 5 * time.Minute)
	}
	lit := func(ts time.Time) string { return "'" + ts.Format("2006-01-02T15:04:05.000") + "'" }
	var out []bandQuery
	for len(out) < n {
		var conj []string
		var args []any
		// param renders v as a literal, or as a ? bound to arg.
		param := func(v string, arg any) string {
			if rng.Intn(2) == 0 {
				args = append(args, arg)
				return "?"
			}
			return v
		}
		if rng.Intn(3) > 0 {
			st := bandStations[rng.Intn(len(bandStations))].station
			conj = append(conj, "F.station = "+param("'"+st+"'", st))
		}
		timeRange := func(col string) {
			lo := at()
			hi := lo.Add(time.Duration(1+rng.Intn(36)) * 20 * time.Minute)
			conj = append(conj, col+" >= "+param(lit(lo), lo), col+" < "+param(lit(hi), hi))
		}
		if rng.Intn(2) == 0 {
			timeRange("D.sample_time")
		}
		if rng.Intn(2) == 0 {
			timeRange("H.window_start_ts")
		}
		if rng.Intn(4) == 0 {
			ts := at()
			conj = append(conj, "S.start_time >= "+param(lit(ts), ts))
		}
		if rng.Intn(4) == 0 {
			id := int64(rng.Intn(len(bandLayout)))
			conj = append(conj, "S.segment_id <> "+param(fmt.Sprint(id), id))
		}
		if rng.Intn(3) == 0 {
			v := float64(rng.Intn(1600) - 800)
			conj = append(conj, "H.window_max_val > "+param(fmt.Sprint(v), v))
		}
		if rng.Intn(4) == 0 {
			v := float64(rng.Intn(1000) - 500)
			conj = append(conj, "D.sample_value < "+param(fmt.Sprint(v), v))
		}
		where := ""
		if len(conj) > 0 {
			where = " WHERE " + strings.Join(conj, " AND ")
		}
		groups := []string{"F.station", "H.window_start_ts", "S.segment_id", "D.window_ts"}
		var sql string
		switch rng.Intn(3) {
		case 0:
			sql = "SELECT COUNT(*), SUM(D.sample_value), AVG(D.sample_value), MIN(D.sample_time), MAX(D.sample_value), STDDEV(D.sample_value) FROM windowdataview" + where
		case 1:
			g := groups[rng.Intn(len(groups))]
			sql = fmt.Sprintf("SELECT %s, COUNT(*), AVG(D.sample_value), MAX(H.window_mean_val) FROM windowdataview%s GROUP BY %s", g, where, g)
			if rng.Intn(2) == 0 {
				sql += " ORDER BY " + g
			}
		default:
			keys := []string{"D.sample_value DESC", "D.sample_time", "H.window_start_ts DESC, D.sample_time", "S.segment_id, D.sample_value"}
			sql = fmt.Sprintf("SELECT D.sample_time, D.sample_value, H.window_start_ts, H.window_std_dev, S.segment_id FROM windowdataview%s ORDER BY %s LIMIT %d",
				where, keys[rng.Intn(len(keys))], 1+rng.Intn(60))
		}
		out = append(out, bandQuery{sql: sql, args: args})
	}
	return out
}

// TestWindowBandOracle is the differential oracle of the stage-1 time
// band: generated windowdataview queries return, under every loading
// approach, bit for bit the rows in the order they return with
// rangeinfer — and with it the band — disabled, over an archive whose
// segments meet window boundaries every way they can. Each
// configuration answers the same query sequence on a fresh database,
// so derived metadata accumulates alike.
func TestWindowBandOracle(t *testing.T) {
	dir := writeBandArchive(t)
	qs := bandQueries(7, 60)
	run := func(app registrar.Approach, disable string) []string {
		db, err := openChecked(t, dir, Config{Approach: app, OptDisable: disable})
		if err != nil {
			t.Fatalf("open %s: %v", app, err)
		}
		defer db.Close()
		var out []string
		for qi, q := range qs {
			res, err := db.QueryArgs(q.sql, q.args...)
			if err != nil {
				t.Fatalf("%s (disable %s) query %d: %v\n%s", app, disable, qi, err, q.sql)
			}
			out = append(out, renderRel(res.Rel))
			res.Release()
		}
		return out
	}
	var ref []string
	rows := 0
	for _, app := range registrar.Approaches() {
		off, on := run(app, "rangeinfer"), run(app, "none")
		if ref == nil {
			ref = off
		}
		for qi, q := range qs {
			if on[qi] != off[qi] {
				t.Errorf("%s, query %d: band changes the answer\n%s %v\nwith:\n%s\nwithout:\n%s", app, qi, q.sql, q.args, on[qi], off[qi])
			}
			if off[qi] != ref[qi] {
				t.Errorf("%s, query %d: answer differs from %s\n%s %v", app, qi, registrar.Approaches()[0], q.sql, q.args)
			}
			rows += strings.Count(on[qi], "\n")
		}
	}
	if rows == 0 {
		t.Fatal("every query answered no rows")
	}

	// The band is in force: on a day of FIAM, Qf keeps at most two
	// windows per segment instead of every window.
	db, err := openChecked(t, dir, Config{OptDisable: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM windowdataview WHERE F.station = 'FIAM'
		AND D.sample_time >= '2010-01-01T00:00:00.000' AND D.sample_time < '2010-01-02T00:00:00.000'`)
	if err != nil {
		t.Fatal(err)
	}
	explain := renderRel(res.Rel)
	res.Release()
	var qf string
	for _, line := range strings.Split(explain, "\n") {
		if strings.Contains(line, "[Qf] join(") && strings.Contains(line, "band(S.start_time-1h < H.window_start_ts < S.end_time)") {
			qf = line
		}
	}
	// Two files' segments meet the day (the second file's first segment
	// starts at its midnight), each at most two windows.
	var n int
	if _, err := fmt.Sscanf(qf[strings.Index(qf, "rows=")+len("rows="):], "%d", &n); qf == "" || err != nil || n > 2*(len(bandLayout)+1) {
		t.Fatalf("banded Qf join: %d rows (%v), want at most %d:\n%s", n, err, 2*(len(bandLayout)+1), explain)
	}
}
