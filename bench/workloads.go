package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sommelier/internal/server"
)

type wireFormat int

const (
	fmtJSON   wireFormat = iota // one materialized JSON body
	fmtNDJSON                   // {"stream":true}
	fmtSOMW                     // {"format":"columnar"}
)

func (f wireFormat) String() string { return [...]string{"json", "ndjson", "somw"}[f] }

// query is one distinct request of a workload with its expected answer.
type query struct {
	class  string
	sql    string
	format wireFormat
	body   []byte // the POST /query body
	want   digest // from the in-process reference
}

func newQuery(class string, format wireFormat, sql string) *query {
	req := map[string]any{"sql": sql}
	switch format {
	case fmtNDJSON:
		req["stream"] = true
	case fmtSOMW:
		req["format"] = "columnar"
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings and bools always marshals
	}
	return &query{class: class, sql: sql, format: format, body: body}
}

// workload is one traffic mix. Every workload is a closed loop: its
// callers are analyst tools and dashboards that wait for each reply.
type workload struct {
	name, why string
	// clients is the closed-loop client count, capped at nproc.
	clients int
	// coldCache runs sommelierd with -cache-bytes scale.ColdCacheBytes;
	// diskTier adds -cache-dir and the fill-and-restart set-up.
	coldCache, diskTier bool
	// warmRequests > 0 warms up with that many requests of the stream
	// itself; 0 warms up by running every distinct query once.
	warmRequests int
	mix          func(d *dataset, sc scale, rng *rand.Rand) mix
}

// mix is a workload's seeded query population: the stream walks cycle,
// drawing uniformly inside the class each position names. A fixed cycle
// keeps class shares exact, so a window's percentiles do not move with
// the luck of the draw.
type mix struct {
	classes [][]*query
	cycle   []int
	// prime queries run once in warm-up and never in the stream: the hot
	// workloads use them to make the whole hot region resident, so the
	// resident set (and with it rss_peak_mb) does not depend on which
	// chunks a seed's few distinct queries happen to touch.
	prime []*query
}

// streamed is every query the stream can draw; distinct adds the primes.
func (m mix) streamed() []*query {
	var out []*query
	for _, c := range m.classes {
		out = append(out, c...)
	}
	return out
}

func (m mix) distinct() []*query { return append(append([]*query(nil), m.prime...), m.streamed()...) }

// stream is one client's deterministic request sequence.
type stream struct {
	m   mix
	rng *rand.Rand
	pos int
}

func newStream(m mix, seed int64, client int) *stream {
	// Clients start at different points of the cycle so they do not
	// issue the same class in lockstep.
	return &stream{m: m, rng: rand.New(rand.NewSource(seed*7919 + int64(client))), pos: client}
}

func (s *stream) next() *query {
	cls := s.m.classes[s.m.cycle[s.pos%len(s.m.cycle)]]
	s.pos++
	return cls[s.rng.Intn(len(cls))]
}

var workloads = []workload{
	{
		name:    "hot_point",
		why:     "microsecond T1-T4 point queries on resident data: server, sqlparse/plan cache and stage 1 do the work, load and stage 2 almost none; bypass for data-path changes",
		clients: 2,
		mix:     hotPointMix,
	},
	{
		name:    "hot_scan",
		why:     "one client scanning 4 resident chunks per query, one class per dominant operator: physical/expr/storage (stage 2) dominate, load is zero, adaptive DOP is GOMAXPROCS",
		clients: 1,
		mix:     hotScanMix,
	},
	{
		name:    "stream_export",
		why:     "one client exporting 40 k rows per query as NDJSON or SOMW and decoding all of it: the streaming drain and server wire encoding dominate",
		clients: 1,
		mix:     streamExportMix,
	},
	{
		name:         "cold_archive",
		why:          "1-minute AVG per station-day over an archive 10x the 64 MiB recycler: stage 1 picks chunks, registrar+mseed fetch and decode, cache evicts; the paper's core path on every query",
		clients:      2,
		coldCache:    true,
		warmRequests: 150,
		mix:          coldMix,
	},
	{
		name:         "warm_restart",
		why:          "cold_archive's stream after a fill, clean shutdown and restart on -cache-dir: every RAM miss is a disk-tier promote (segcodec decode), archive fetches must be 0",
		clients:      2,
		coldCache:    true,
		diskTier:     true,
		warmRequests: 150,
		mix:          coldMix,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

const (
	// hotPointTuples is the fixed parameter-tuple count of hot_point.
	hotPointTuples = 32
	// scanQueries and exportQueries are the distinct queries per class.
	scanQueries   = 8
	exportQueries = 12
)

func avgSQL(station string, from, to int64) string {
	return fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, server.WireTime(from), server.WireTime(to))
}

// hotPointMix: an equal mix of T1 (F count by station), T2 (H window
// lookup), T3 (windowdataview_md) and a 2-second T4 on one resident
// chunk, over 32 fixed tuples of (station, hot day, hour).
func hotPointMix(d *dataset, sc scale, rng *rand.Rand) mix {
	m := mix{classes: make([][]*query, 4), cycle: []int{0, 1, 2, 3}, prime: chunkProbes(d, sc.HotDays, rng)}
	stations := d.stations()
	for i := 0; i < hotPointTuples; i++ {
		si, day := rng.Intn(len(stations)), rng.Intn(sc.HotDays)
		st := stations[si]
		from := d.dayStart(day) + int64(rng.Intn(20))*int64(time.Hour)
		to := from + 4*int64(time.Hour)
		// The 2-second T4 starts one second into a segment, so it always
		// averages ~40 samples and never an empty set (AVG of nothing is
		// NaN, which JSON cannot carry).
		segs := d.file(si, day).Segments
		seg := segs[rng.Intn(len(segs))]
		t4 := (seg.StartTime/int64(time.Millisecond) + 1000) * int64(time.Millisecond)
		m.classes[0] = append(m.classes[0], newQuery("t1", fmtJSON, fmt.Sprintf(
			`SELECT station, COUNT(*) AS n FROM F WHERE station = '%s' GROUP BY station`, st)))
		m.classes[1] = append(m.classes[1], newQuery("t2", fmtJSON, fmt.Sprintf(
			`SELECT window_start_ts, window_max_val, window_std_dev FROM H WHERE window_station = '%s' AND window_start_ts >= '%s' AND window_start_ts < '%s'`,
			st, server.WireTime(from), server.WireTime(to))))
		m.classes[2] = append(m.classes[2], newQuery("t3", fmtJSON, fmt.Sprintf(
			`SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md WHERE F.station = '%s' AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s'`,
			st, server.WireTime(from), server.WireTime(to))))
		m.classes[3] = append(m.classes[3], newQuery("t4", fmtJSON, avgSQL(st, t4, t4+2*int64(time.Second))))
	}
	return m
}

// scanClasses names hot_scan's classes; exec.stage2_us_p50.<class> is
// reported for each.
var scanClasses = []string{"avg_range", "groupby_station", "join_t5", "topk"}

// hotScanMix: four classes over the resident hot region, each touching
// ScanDays chunks. topk selects only the ordering column, so ties at
// the tenth place cannot change the answer.
func hotScanMix(d *dataset, sc scale, rng *rand.Rand) mix {
	m := mix{classes: make([][]*query, 4), cycle: []int{0, 1, 2, 3}, prime: chunkProbes(d, sc.HotDays, rng)}
	stations := d.stations()
	for i := 0; i < scanQueries; i++ {
		st := stations[rng.Intn(len(stations))]
		from := d.dayStart(rng.Intn(sc.HotDays - sc.ScanDays + 1))
		to := from + int64(sc.ScanDays)*24*int64(time.Hour)
		oneDay := d.dayStart(rng.Intn(sc.HotDays))
		m.classes[0] = append(m.classes[0], newQuery(scanClasses[0], fmtJSON, avgSQL(st, from, to)))
		m.classes[1] = append(m.classes[1], newQuery(scanClasses[1], fmtJSON, fmt.Sprintf(
			`SELECT F.station, AVG(D.sample_value), COUNT(*) FROM dataview WHERE D.sample_time >= '%s' AND D.sample_time < '%s' GROUP BY F.station`,
			server.WireTime(oneDay), server.WireTime(oneDay+24*int64(time.Hour)))))
		m.classes[2] = append(m.classes[2], newQuery(scanClasses[2], fmtJSON, fmt.Sprintf(
			`SELECT AVG(D.sample_value) FROM windowdataview WHERE F.station = '%s' AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s' AND H.window_max_val > -1000000000 AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
			st, server.WireTime(from), server.WireTime(to), server.WireTime(from), server.WireTime(to))))
		m.classes[3] = append(m.classes[3], newQuery(scanClasses[3], fmtJSON, fmt.Sprintf(
			`SELECT D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s' ORDER BY D.sample_value DESC LIMIT 10`,
			st, server.WireTime(from), server.WireTime(to))))
	}
	return m
}

func exportSQL(d *dataset, station string, day int) string {
	return fmt.Sprintf(`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, server.WireTime(d.dayStart(day)), server.WireTime(d.dayStart(day+1)))
}

// streamExportMix: 1-day row-returning scans over the hot region, one
// NDJSON request to two SOMW. The uneven share puts the median inside
// the SOMW mode and p95 inside the NDJSON mode; an even split would put
// the median on the gap between the two, where it is noise.
func streamExportMix(d *dataset, sc scale, rng *rand.Rand) mix {
	m := mix{classes: make([][]*query, 2), cycle: []int{0, 1, 1}, prime: chunkProbes(d, sc.HotDays, rng)}
	stations := d.stations()
	for i := 0; i < exportQueries; i++ {
		sql := exportSQL(d, stations[rng.Intn(len(stations))], rng.Intn(sc.HotDays))
		m.classes[0] = append(m.classes[0], newQuery("ndjson", fmtNDJSON, sql))
		m.classes[1] = append(m.classes[1], newQuery("somw", fmtSOMW, sql))
	}
	return m
}

// chunkProbes is one AVG per station-day of the first `days` days, each
// over the first minute of a segment (1 200 samples): the whole chunk
// must be resident or fetched and decoded, but stage 2 reads one batch
// of it.
func chunkProbes(d *dataset, days int, rng *rand.Rand) []*query {
	var out []*query
	for si, st := range d.stations() {
		for day := 0; day < days; day++ {
			segs := d.file(si, day).Segments
			from := segs[rng.Intn(len(segs))].StartTime / int64(time.Millisecond) * int64(time.Millisecond)
			out = append(out, newQuery("avg_1m", fmtJSON, avgSQL(st, from, from+int64(time.Minute))))
		}
	}
	return out
}

// coldMix: a probe for every station-day of the cold region, drawn
// uniformly, so about one request in ten finds its chunk in RAM. A
// one-minute average keeps load the largest share; a full-day scan
// spends three times longer in stage 2 than in load and would make this
// a second hot_scan.
func coldMix(d *dataset, sc scale, rng *rand.Rand) mix {
	return mix{classes: [][]*query{chunkProbes(d, sc.Days, rng)}, cycle: []int{0}}
}
