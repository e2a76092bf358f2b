package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/engine"
	"sommelier/internal/mseed"
	"sommelier/internal/opt"
	"sommelier/internal/plan"
	"sommelier/internal/registrar"
	"sommelier/internal/seismic"
	"sommelier/internal/server"
	"sommelier/internal/sqlparse"
	"sommelier/internal/storage"
)

// The traced pass runs in the benchmark's own process and clocks calls
// into each layer's public functions. It fills the per-layer metrics no
// outside view of sommelierd can; end-to-end numbers never come from it.

const (
	// wireReps is how often each wire format renders the export query.
	wireReps = 5
	// compileStatements caps the statements parsed, built and optimized.
	compileStatements = 64
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed records f as a root span and returns its duration.
func timed(tr *tracer, name string, query int, f func()) time.Duration {
	id := tr.begin(name, -1, query)
	f()
	return tr.end(id)
}

// discardSink consumes a query stream without rendering it.
type discardSink struct{}

func (discardSink) Push(b *storage.Batch) error {
	storage.PutBatch(b)
	return nil
}

// tracedPass records spans for one workload and returns the traced
// per-layer metrics.
func (h *harness) tracedPass(ctx context.Context, w *workload, m mix, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, step := range []func() error{
		func() error { return h.traceLifecycle(tr, out) },
		func() error { return h.traceChunks(tr, out) },
		func() error { return h.traceWireAndCompile(ctx, m, tr, out) },
		func() error { return h.traceReplay(ctx, w, m, tr, out) },
	} {
		// Each step starts from a collected heap: what the previous one
		// left behind (a reference database, decoded chunks) would
		// otherwise be traced by the collector inside this one's spans.
		runtime.GC()
		if err := step(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	out["storage.pool_outstanding_end"] = float64(storage.Outstanding())
	return out, nil
}

// traceLifecycle clocks registration, a cold Open on an empty cache
// directory, the Close that flushes a small working set to it, and the
// warm Open that follows.
func (h *harness) traceLifecycle(tr *tracer, out map[string]float64) error {
	repo, err := registrar.DiscoverRepository(h.ds.dir)
	if err != nil {
		return err
	}
	out["registrar.register_metadata_ms"] = ms(timed(tr, "registrar.RegisterMetadata", -1, func() {
		_, _, err = registrar.RegisterMetadata(seismic.NewCatalog(), repo)
	}))
	if err != nil {
		return err
	}
	cfg := engine.Config{CacheDir: filepath.Join(h.runDir, "trace-lifecycle-cache")}
	var db *engine.DB
	out["engine.open_ms"] = ms(timed(tr, "engine.Open", -1, func() { db, err = engine.Open(h.ds.dir, cfg) }))
	if err != nil {
		return err
	}
	station := h.ds.stations()[0]
	for day := 0; day < min(h.sc.MicroChunks, h.sc.Days); day++ {
		res, err := db.Query(avgSQL(station, h.ds.dayStart(day), h.ds.dayStart(day+1)))
		if err != nil {
			return err
		}
		res.Release()
	}
	out["engine.close_ms"] = ms(timed(tr, "engine.Close", -1, func() { err = db.Close() }))
	if err != nil {
		return err
	}
	out["engine.warm_open_ms"] = ms(timed(tr, "engine.Open.warm", -1, func() { db, err = engine.Open(h.ds.dir, cfg) }))
	if err != nil {
		return err
	}
	if !db.WarmStart() {
		return fmt.Errorf("trace: second Open on the cache directory was not a warm start")
	}
	return db.Close()
}

// traceChunks walks MicroChunks chunks, spread over the archive, through
// each step a chunk can take: archive load (and its two halves), segment
// encode and decode, disk-tier spill and promote.
func (h *harness) traceChunks(tr *tracer, out map[string]float64) error {
	repo, err := registrar.DiscoverRepository(h.ds.dir)
	if err != nil {
		return err
	}
	dt, err := cache.OpenDiskTier(filepath.Join(h.runDir, "trace-disktier"), seismic.TableD, 0)
	if err != nil {
		return err
	}
	defer dt.Close()
	var (
		load, read, toRel, enc, dec, spill, promote []time.Duration
		chunks, rows, segBytes, fileBytes           int64
	)
	stride := max(1, len(repo.Uris)/h.sc.MicroChunks)
	for id := int64(0); id < int64(len(repo.Uris)) && chunks < int64(h.sc.MicroChunks); id += int64(stride) {
		var (
			rel, back *storage.Relation
			file      *mseed.File
			buf       []byte
		)
		load = append(load, timed(tr, "registrar.Repository.LoadChunk", -1, func() { rel, err = repo.LoadChunk(seismic.TableD, id) }))
		if err != nil {
			return err
		}
		read = append(read, timed(tr, "mseed.ReadChunkFile", -1, func() { file, err = mseed.ReadChunkFile(repo.Uris[id]) }))
		if err != nil {
			return err
		}
		toRel = append(toRel, timed(tr, "registrar.ChunkToRelation", -1, func() { registrar.ChunkToRelation(id, file) }))
		enc = append(enc, timed(tr, "storage.EncodeRelation", -1, func() { buf, err = storage.EncodeRelation(nil, rel) }))
		if err != nil {
			return err
		}
		dec = append(dec, timed(tr, "storage.DecodeRelation", -1, func() { back, err = storage.DecodeRelation(buf) }))
		if err != nil {
			return err
		}
		back.Release()
		// SpillSync only queues the block; the span ends once the
		// writer has it on disk.
		spill = append(spill, timed(tr, "cache.DiskTier.SpillSync", -1, func() {
			dt.SpillSync(id, rel)
			dt.WaitIdle()
		}))
		promote = append(promote, timed(tr, "cache.DiskTier.Promote", -1, func() { back = dt.Promote(id) }))
		if back == nil {
			return fmt.Errorf("trace: chunk %d did not promote back from the disk tier", id)
		}
		back.Release()
		fi, err := os.Stat(repo.Uris[id])
		if err != nil {
			return err
		}
		chunks++
		rows += int64(rel.Rows())
		segBytes += int64(len(buf))
		fileBytes += fi.Size()
	}
	out["registrar.load_chunk_us_per_chunk"] = medianUS(load)
	out["mseed.read_chunk_us_per_chunk"] = medianUS(read)
	out["registrar.chunk_to_relation_us_per_chunk"] = medianUS(toRel)
	out["storage.seg_encode_us_per_chunk"] = medianUS(enc)
	out["storage.seg_decode_us_per_chunk"] = medianUS(dec)
	out["cache.disk_spill_us_per_chunk"] = medianUS(spill)
	out["cache.disk_promote_us_per_chunk"] = medianUS(promote)
	out["storage.seg_bytes_per_row"] = float64(segBytes) / float64(rows)
	out["mseed.archive_bytes_per_row"] = float64(fileBytes) / float64(rows)
	return nil
}

// traceWireAndCompile renders one resident 1-day export through
// server.Handler in each wire format, and compiles the workload's
// statements step by step. A handler span's child is the time the same
// query takes in the engine alone, so its self time is what the server
// adds: decode, admission, render, write.
func (h *harness) traceWireAndCompile(ctx context.Context, m mix, tr *tracer, out map[string]float64) error {
	db, err := openDB(h.ds.dir, engine.Config{})
	if err != nil {
		return err
	}
	handler := server.New(db, server.Config{}).Handler()
	sql := exportSQL(h.ds, h.ds.stations()[0], 0)
	engineOnly := func(f wireFormat) (time.Duration, error) {
		t0 := time.Now()
		var res *engine.Result
		var err error
		if f == fmtJSON {
			res, err = db.QueryArgsContext(ctx, sql)
		} else {
			res, err = db.QueryStream(ctx, sql, discardSink{})
		}
		if err != nil {
			return 0, err
		}
		res.Release()
		return time.Since(t0), nil
	}
	if _, err := engineOnly(fmtJSON); err != nil { // make the chunk resident
		return err
	}
	rows := map[wireFormat]int{}
	for _, f := range []wireFormat{fmtJSON, fmtNDJSON, fmtSOMW} {
		q := newQuery("wire", f, sql)
		for rep := 0; rep < wireReps; rep++ {
			inEngine, err := engineOnly(f)
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(q.body)).WithContext(ctx)
			id := tr.begin("server.ServeHTTP."+f.String(), -1, -1)
			handler.ServeHTTP(rec, req)
			total := tr.end(id)
			tr.child("engine.query", id, 0, min(inEngine, total))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("trace: %s export answered %d: %.200s", f, rec.Code, rec.Body.Bytes())
			}
			a, err := decodeAnswer(f, rec.Body.Bytes())
			if err != nil {
				return fmt.Errorf("trace: %s export: %w", f, err)
			}
			rows[f] = a.got.rows
			out["server.wire_bytes_per_row."+f.String()] = float64(rec.Body.Len()) / float64(a.got.rows)
		}
	}

	var parse, build, optimize, cold []time.Duration
	octx := &opt.Context{Catalog: db.Catalog()}
	for i, q := range m.streamed() {
		if i == compileStatements {
			break
		}
		var (
			st *sqlparse.Statement
			p  *plan.Plan
		)
		dParse := timed(tr, "sqlparse.ParseStatement", i, func() { st, err = sqlparse.ParseStatement(q.sql) })
		if err != nil {
			return err
		}
		dBuild := timed(tr, "plan.Build", i, func() { p, err = plan.Build(octx.Catalog, st.Query) })
		if err != nil {
			return err
		}
		dOpt := timed(tr, "opt.Optimize", i, func() { _, err = opt.Optimize(octx, p, opt.Default()) })
		if err != nil {
			return err
		}
		parse, build, optimize = append(parse, dParse), append(build, dBuild), append(optimize, dOpt)
		cold = append(cold, dParse+dBuild+dOpt)
	}
	out["sqlparse.parse_us_p50"] = medianUS(parse)
	out["plan.build_us_p50"] = medianUS(build)
	out["opt.optimize_us_p50"] = medianUS(optimize)
	out["engine.compile_cold_us_p50"] = medianUS(cold)

	self := tr.selfTimes()
	for f, n := range rows {
		out["server.handle_self_us_per_krow."+f.String()] = medianUS(self["server.ServeHTTP."+f.String()]) / (float64(n) / 1000)
	}
	return nil
}

// traceReplay opens the archive the way the workload's sommelierd runs,
// warms it up the same way, and replays the first TraceQueries of client
// 0's stream. Each query span gets the compile and stage timings its
// Result reports as children.
func (h *harness) traceReplay(ctx context.Context, w *workload, m mix, tr *tracer, out map[string]float64) error {
	var cfg engine.Config
	if w.coldCache {
		cfg.CacheBytes = h.sc.ColdCacheBytes
	}
	run := func(db *engine.DB, q *query) (*engine.Result, error) {
		if q.format == fmtJSON {
			return db.QueryArgsContext(ctx, q.sql)
		}
		return db.QueryStream(ctx, q.sql, discardSink{})
	}
	if w.diskTier {
		// The same fill, clean shutdown and restart as the HTTP set-up.
		cfg.CacheDir = filepath.Join(h.runDir, "trace-replay-cache")
		db, err := openDB(h.ds.dir, cfg)
		if err != nil {
			return err
		}
		for _, q := range m.distinct() {
			res, err := run(db, q)
			if err != nil {
				return err
			}
			res.Release()
		}
		if err := db.Close(); err != nil {
			return err
		}
	}
	db, err := openDB(h.ds.dir, cfg)
	if err != nil {
		return err
	}
	defer db.Close()

	st := newStream(m, h.seed, 0)
	warm := m.distinct()
	if w.warmRequests > 0 {
		warm = nil
		for i := 0; i < w.warmRequests; i++ {
			warm = append(warm, st.next())
		}
	}
	var derivation time.Duration
	for _, q := range warm {
		res, err := run(db, q)
		if err != nil {
			return err
		}
		derivation += res.DMd.Derivation
		res.Release()
	}
	var lat []float64
	for i := 0; i < h.sc.TraceQueries; i++ {
		q := st.next()
		name := "engine.DB.QueryArgsContext"
		if q.format != fmtJSON {
			name = "engine.DB.QueryStream"
		}
		id := tr.begin(name, -1, i)
		res, err := run(db, q)
		lat = append(lat, ms(tr.end(id)))
		if err != nil {
			return err
		}
		var off time.Duration
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"compile", res.Compile}, {"stage1", res.Stats.Stage1}, {"load", res.Stats.Load}, {"stage2", res.Stats.Stage2}} {
			tr.child(c.name, id, off, c.d)
			off += c.d
		}
		derivation += res.DMd.Derivation
		res.Release()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	out["bench.inproc_p50_ms"] = median(lat)
	out["dmd.derivation_ms_total"] = ms(derivation)
	return nil
}
