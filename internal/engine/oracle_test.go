package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sommelier/internal/fault"
	"sommelier/internal/opt"
	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

// rowDigest is a result as one hash per row, every cell hashed by its
// bits, so results compare bitwise: in order, or as multisets of rows.
// A second hash per row cuts floats to 10 significant digits, for the
// comparisons across join orders (see oracle.check). A *rowDigest is a
// StreamSink, hashing rows as they arrive.
type rowDigest struct{ rows, rounded []uint64 }

func (d *rowDigest) Push(b *storage.Batch) error {
	flat := b.Materialize()
	h, hr := fnv.New64a(), fnv.New64a()
	var buf []byte
	for r := 0; r < flat.Len(); r++ {
		h.Reset()
		hr.Reset()
		for _, c := range flat.Cols {
			buf = buf[:0]
			switch v := storage.ValueAt(c, r).(type) {
			case float64:
				h.Write(binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)))
				hr.Write(strconv.AppendFloat(buf[:0], v, 'g', 10, 64))
				continue
			case int64:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			default:
				buf = fmt.Appendf(buf, "%v|", v)
			}
			h.Write(buf)
			hr.Write(buf)
		}
		d.rows, d.rounded = append(d.rows, h.Sum64()), append(d.rounded, hr.Sum64())
	}
	return nil
}

// digest hashes a relation's rows.
func digest(rel *storage.Relation) rowDigest {
	var d rowDigest
	for _, b := range rel.Batches() {
		d.Push(b)
	}
	return d
}

// String identifies the rows in order.
func (d rowDigest) String() string {
	h := fnv.New64a()
	for _, r := range d.rows {
		h.Write(binary.LittleEndian.AppendUint64(nil, r))
	}
	return fmt.Sprintf("%d rows, digest %016x", len(d.rows), h.Sum64())
}

// multiset is the rows in a canonical order.
func (d rowDigest) multiset() rowDigest {
	m := rowDigest{slices.Clone(d.rows), slices.Clone(d.rounded)}
	slices.Sort(m.rows)
	slices.Sort(m.rounded)
	return m
}

// match reports whether the row hashes got equal want — in order, or
// as a multiset. With a limit, got is what a sink that stops at limit
// rows took: at least that many of want's rows, a leading part of them
// in order, or a sub-multiset of them.
func match(got, want []uint64, ordered bool, limit int) bool {
	if limit > 0 && len(got) < min(limit, len(want)) {
		return false
	}
	if !ordered {
		got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
	}
	switch {
	case limit == 0:
		return slices.Equal(got, want)
	case ordered:
		return len(got) <= len(want) && slices.Equal(got, want[:len(got)])
	}
	for len(got) > 0 && len(want) > 0 {
		if got[0] == want[0] {
			got = got[1:]
		}
		want = want[1:]
	}
	return len(got) == 0
}

// oracleClasses are the query classes: what a query reads, by the
// table or view it names after FROM.
var oracleClasses = []string{"F", "S", "H", "D", "dataview", "windowdataview", "windowdataview_md"}

func (q oracleQuery) class() string {
	f := strings.Fields(q.sql)
	for i := range f[:len(f)-1] {
		if f[i] == "FROM" {
			return f[i+1]
		}
	}
	return ""
}

// ordered reports whether the query's ORDER BY fixes the order its
// rows compare in across loading approaches and interleavings: sorts
// are stable and every approach's joins emit D's rows in one order, so
// rows tied on the keys come back in one order too.
func (q oracleQuery) ordered() bool { return strings.Contains(q.sql, "ORDER BY") }

func (q oracleQuery) explain() bool { return strings.HasPrefix(strings.TrimSpace(q.sql), "EXPLAIN") }

// narrow reports whether the query names one station and a range of D,
// or a range of windows: it loads part of a chunk, and a sequence runs
// such queries before the others, so that wide ones top them up.
func (q oracleQuery) narrow() bool {
	return strings.Contains(q.sql, "F.station = ") && strings.Contains(q.sql, "D.sample_time >= ") ||
		strings.Contains(q.sql, "H.window_start_ts >= ")
}

// exclusionSQL is the strict-mode query whose answer a degraded result
// must equal: q's WHERE clause conjoined with one D.file_id <> k per
// skipped chunk (chunk IDs are file IDs).
func exclusionSQL(sql string, warns []Warning) string {
	if len(warns) == 0 {
		return sql
	}
	var ex []string
	for _, w := range warns {
		ex = append(ex, fmt.Sprintf("D.file_id <> %d", w.Chunk))
	}
	sql = strings.Join(strings.Fields(sql), " ")
	end := len(sql)
	for _, kw := range []string{" GROUP BY ", " ORDER BY ", " LIMIT "} {
		if i := strings.Index(sql, kw); i >= 0 && i < end {
			end = i
		}
	}
	head, tail := sql[:end], sql[end:]
	if i := strings.Index(head, " WHERE "); i >= 0 {
		return head[:i] + " WHERE (" + head[i+len(" WHERE "):] + ") AND " + strings.Join(ex, " AND ") + tail
	}
	return head + " WHERE " + strings.Join(ex, " AND ") + tail
}

// qgen builds one generated query: its predicates and the arguments of
// the ones it binds through ? markers, at times drawn by at.
type qgen struct {
	rng  *rand.Rand
	at   func() time.Time
	args []any
	conj []string
}

var oracleStations = []string{"FIAM", "ISK", "AQU", "CERA"}

// param renders v as a literal, or as a ? bound to arg.
func (g *qgen) param(v string, arg any) string {
	if g.rng.Intn(2) == 0 {
		g.args = append(g.args, arg)
		return "?"
	}
	return v
}

// station adds col = one station, or a disjunction of two.
func (g *qgen) station(col string) {
	st := oracleStations[g.rng.Intn(len(oracleStations))]
	if g.rng.Intn(4) > 0 {
		g.conj = append(g.conj, col+" = "+g.param("'"+st+"'", st))
		return
	}
	other := oracleStations[g.rng.Intn(len(oracleStations))]
	g.conj = append(g.conj, fmt.Sprintf("(%s = '%s' OR %s = '%s')", col, st, col, other))
}

// timeRange adds lo <= col < hi, up to maxSpan apart.
func (g *qgen) timeRange(col string, maxSpan time.Duration) {
	lo := g.at()
	hi := lo.Add(time.Duration(1+g.rng.Int63n(int64(maxSpan/(5*time.Minute)))) * 5 * time.Minute)
	g.conj = append(g.conj, col+" >= "+g.param(lit(lo), lo), col+" < "+g.param(lit(hi), hi))
}

// maybe adds pred with probability 1/n.
func (g *qgen) maybe(n int, pred func()) {
	if g.rng.Intn(n) == 0 {
		pred()
	}
}

// value adds col op v for an integral v in [lo, hi).
func (g *qgen) value(col, op string, lo, hi int) {
	v := float64(lo + g.rng.Intn(hi-lo))
	g.conj = append(g.conj, fmt.Sprintf("%s %s %s", col, op, g.param(fmt.Sprint(v), v)))
}

func (g *qgen) where() string {
	if len(g.conj) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(g.conj, " AND ")
}

// orderBy returns " ORDER BY keys" half the time.
func (g *qgen) orderBy(keys string) string {
	if g.rng.Intn(2) == 0 {
		return " ORDER BY " + keys
	}
	return ""
}

// pick returns one of the shapes' SQL, chosen at random.
func (g *qgen) pick(shapes ...func() string) string { return shapes[g.rng.Intn(len(shapes))]() }

// genQueries generates n queries, cycling through the classes and a
// top-k over one numeric key that many rows tie on (the rows' times
// tell them apart), so that any eight consecutive ones cover each:
// predicates on F, S, D and H (literal or bound to ? parameters),
// disjunctions, arithmetic projections, GROUP BY, ORDER BY with LIMIT
// and bare row exports.
func genQueries(rng *rand.Rand, n int) []oracleQuery {
	out := make([]oracleQuery, 0, n)
	slots := append(slices.Clone(oracleClasses), "topk")
	// Times on a five-minute grid over the archive's four days.
	at := func() time.Time {
		return time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(4*24*12)) * 5 * time.Minute)
	}
	for i := 0; i < n; i++ {
		g := &qgen{rng: rng, at: at}
		var sql string
		switch slots[i%len(slots)] {
		case "topk":
			g.station("F.station")
			g.timeRange("D.sample_time", 12*time.Hour)
			key := []string{"D.window_ts DESC", "S.segment_id"}[g.rng.Intn(2)]
			sql = fmt.Sprintf("SELECT D.sample_time, D.sample_value, D.window_ts, S.segment_id FROM dataview%s ORDER BY %s LIMIT %d", g.where(), key, 20+g.rng.Intn(40))
		case "F":
			g.station("station")
			sql = g.pick(
				func() string {
					return "SELECT station, channel, COUNT(*) FROM F" + g.where() + " GROUP BY station, channel" + g.orderBy("station, channel")
				},
				func() string {
					return "SELECT file_id, station, encoding * 2 + file_id FROM F" + g.where() + g.orderBy("file_id")
				})
		case "S":
			g.maybe(2, func() { g.timeRange("start_time", 36*time.Hour) })
			g.maybe(2, func() { g.value("sample_count", ">", 0, 4000) })
			sql = g.pick(
				func() string {
					return "SELECT file_id, COUNT(*), SUM(sample_count), MAX(end_time), MIN(frequency) FROM S" + g.where() + " GROUP BY file_id" + g.orderBy("file_id")
				},
				func() string {
					g.conj = append(g.conj, fmt.Sprintf("(segment_id < %d OR sample_count > %d)", g.rng.Intn(8), g.rng.Intn(5000)))
					return fmt.Sprintf("SELECT file_id, segment_id, sample_count * 2 - 1, end_time FROM S%s ORDER BY file_id, segment_id LIMIT %d", g.where(), 1+g.rng.Intn(40))
				})
		case "H":
			g.maybe(4, func() { g.value("window_max_val", ">", -800, 800) })
			sql = g.pick(
				func() string {
					g.station("window_station")
					g.timeRange("window_start_ts", 18*time.Hour)
					return "SELECT window_start_ts, window_station, window_max_val, window_mean_val, window_std_dev FROM H" + g.where() + g.orderBy("window_station, window_start_ts")
				},
				func() string {
					g.timeRange("window_start_ts", 6*time.Hour)
					return "SELECT window_station, COUNT(*), MAX(window_max_val), MIN(window_min_val) FROM H" + g.where() + " GROUP BY window_station" + g.orderBy("window_station")
				})
		case "D":
			sql = g.pick(
				func() string {
					g.maybe(2, func() { g.value("D.sample_value", ">", -500, 500) })
					return "SELECT D.segment_id, COUNT(*), MIN(D.sample_value), MAX(D.sample_time) FROM D" + g.where() + " GROUP BY D.segment_id" + g.orderBy("D.segment_id")
				},
				func() string {
					g.timeRange("D.sample_time", 48*time.Hour)
					return "SELECT COUNT(*), SUM(D.sample_value), AVG(D.sample_value * 0.5 + 1) FROM D" + g.where()
				})
		case "dataview":
			g.station("F.station")
			g.timeRange("D.sample_time", 12*time.Hour)
			g.maybe(4, func() { g.value("S.segment_id", "<>", 0, 12) })
			g.maybe(4, func() { g.value("D.sample_value", "<", -500, 500) })
			g.maybe(5, func() {
				ts := g.at()
				g.conj = append(g.conj, "S.start_time >= "+g.param(lit(ts), ts))
			})
			sql = g.pick(
				func() string {
					return "SELECT COUNT(*), SUM(D.sample_value), AVG(D.sample_value), MIN(D.sample_time), MAX(D.sample_value), STDDEV(D.sample_value) FROM dataview" + g.where()
				},
				func() string {
					k := []string{"F.station", "S.segment_id", "D.window_ts", "F.channel"}[g.rng.Intn(4)]
					return fmt.Sprintf("SELECT %s, COUNT(*), AVG(D.sample_value), MAX(D.sample_value - D.sample_value / 3) FROM dataview%s GROUP BY %s%s", k, g.where(), k, g.orderBy(k))
				},
				func() string {
					keys := []string{"D.sample_value DESC", "D.sample_time DESC", "S.segment_id, D.sample_value"}[g.rng.Intn(3)]
					return fmt.Sprintf("SELECT D.sample_time, D.sample_value, D.sample_value * 2 + 1, S.segment_id FROM dataview%s ORDER BY %s LIMIT %d", g.where(), keys, 1+g.rng.Intn(50))
				},
				func() string {
					return "SELECT D.sample_time, D.sample_value, S.segment_id FROM dataview" + g.where()
				})
		case "windowdataview":
			q := g.window(oracleStations, 12)
			sql, g.args = q.sql, q.args
		case "windowdataview_md":
			g.timeRange("H.window_start_ts", 18*time.Hour)
			sql = g.pick(
				func() string {
					g.station("F.station")
					return "SELECT F.station, H.window_start_ts, H.window_max_val FROM windowdataview_md" + g.where() + g.orderBy("F.station, H.window_start_ts")
				},
				func() string {
					return "SELECT F.station, COUNT(*), MAX(H.window_std_dev) FROM windowdataview_md" + g.where() + " GROUP BY F.station" + g.orderBy("F.station")
				})
		}
		out = append(out, oracleQuery{sql: sql, args: g.args})
	}
	return out
}

// The lattice's dimensions, each a cell's index into it.
const (
	dApproach = iota
	dRules
	dFanout
	dSink
	dTier
	dFaults
	dConc
	nDims
)

// lattice lists every level of every dimension. Rules: every rule
// "on", "all" rules off, or the one rule named off. Tiers:
// "ram"; "churn", a RAM cache of 1.5 chunks over a disk tier, the
// sequence run twice so evicted chunks spill and come back through
// promote; "4mib", a 4 MiB cache under which wide queries top up and
// evict the narrow ones' partial chunks; "warm", the sequence run again
// after a restart on the disk tier, with no archive fetch. Faults:
// "zero", every chunk point armed at rate zero, must equal unarmed
// bitwise; "flight" and "fill", seeded schedules under which a
// degraded result must equal the strict result of the query that
// excludes the chunks it skipped.
var lattice = [nDims]struct {
	name   string
	levels []string
}{
	dApproach: {"approach", []string{"eager_csv", "eager_plain", "eager_index", "eager_dmd", "lazy"}},
	dRules:    {"rules", append([]string{"on", "all"}, opt.Rules()...)},
	dFanout:   {"fanout", []string{"1", "2", "4", "8"}},
	dSink:     {"sink", []string{"collect", "stream", "stop", "fail"}},
	dTier:     {"tier", []string{"ram", "churn", "4mib", "warm"}},
	dFaults:   {"faults", []string{"none", "zero", "flight", "fill"}},
	dConc:     {"conc", []string{"1", "8"}},
}

var faultSchedules = map[string]string{
	"zero":   "exec.flight=error:0,cache.fill=error:0,registrar.http=error:0,mseed.decode=error:0",
	"flight": "exec.flight=error:0.3",
	"fill":   "cache.fill=error:0.1",
}

// cell is one configuration of the lattice, a level per dimension (""
// while the sampler has not chosen one), and the sequence it runs: its
// own.
type cell struct {
	lv   [nDims]string
	seq  int
	name string // the subtest's, when not its levels
}

func (c cell) String() string {
	var parts []string
	for d, l := range c.lv {
		parts = append(parts, lattice[d].name+"="+l)
	}
	return fmt.Sprintf("%s_seq=%d", strings.Join(parts, "_"), c.seq)
}

// consistent reports whether the chosen levels combine: chunk tiers,
// fault points and ingestion fan-out exist only under lazy loading
// (eager approaches hold every chunk from the start); a schedule that
// skips chunks, the concurrent replay and the tiers that check the
// chunk store's counters need whole results on one serial sequence;
// plans without joinorder, slow on the whole archive, run their
// sequence once, on one goroutine, without a twin.
func (c cell) consistent() bool {
	set := func(d int, unless string) bool { return c.lv[d] != "" && c.lv[d] != unless }
	lazyOnly := set(dTier, "ram") || set(dFaults, "none") || set(dFanout, "1")
	if lazyOnly && c.lv[dApproach] != "" && c.lv[dApproach] != string(registrar.Lazy) {
		return false
	}
	partial := c.lv[dSink] == "stop" || c.lv[dSink] == "fail"
	skips := c.lv[dFaults] == "flight" || c.lv[dFaults] == "fill"
	counted := c.lv[dTier] == "4mib" || c.lv[dTier] == "warm"
	conc := c.lv[dConc] == "8"
	if skips && (partial || conc || counted) {
		return false
	}
	if conc && (partial || counted) {
		return false
	}
	if (c.lv[dRules] == "all" || c.lv[dRules] == opt.RuleJoinOrder) && (conc || set(dFaults, "none") || set(dTier, "ram")) {
		return false
	}
	return !(partial && set(dTier, "ram"))
}

// sampleCells draws cells until every level of every dimension is in
// one: each new cell takes the first level no cell has yet, then every
// other uncovered level that combines with it, then random levels.
func sampleCells(rng *rand.Rand) []cell {
	type level struct{ d, l int }
	var need []level
	for d := range lattice {
		for l := range lattice[d].levels {
			need = append(need, level{d, l})
		}
	}
	rng.Shuffle(len(need), func(i, j int) { need[i], need[j] = need[j], need[i] })
	covered := make(map[level]bool)
	var cells []cell
	set := func(c *cell, p level) bool {
		if c.lv[p.d] != "" {
			return c.lv[p.d] == lattice[p.d].levels[p.l]
		}
		c.lv[p.d] = lattice[p.d].levels[p.l]
		if !c.consistent() {
			c.lv[p.d] = ""
			return false
		}
		return true
	}
	for _, p := range need {
		if covered[p] {
			continue
		}
		c := cell{seq: len(cells)}
		set(&c, p)
		for _, q := range need {
			if !covered[q] {
				set(&c, q)
			}
		}
		for d := range lattice {
			for _, l := range rng.Perm(len(lattice[d].levels)) {
				if set(&c, level{d, l}) {
					break
				}
			}
		}
		for d := range lattice {
			covered[level{d, slices.Index(lattice[d].levels, c.lv[d])}] = true
		}
		cells = append(cells, c)
	}
	return cells
}

// limitSink hashes rows until it holds limit of them, then returns err:
// ErrStopStream for a client that has what it wants, errSinkFail for
// one whose connection dies.
type limitSink struct {
	rows  rowDigest
	limit int
	err   error
}

var errSinkFail = errors.New("oracle: the client went away")

func (s *limitSink) Push(b *storage.Batch) error {
	s.rows.Push(b)
	if s.err != nil && len(s.rows.rows) >= s.limit {
		return s.err
	}
	return nil
}

// answer runs q on db through sink and returns its rows and warnings.
func answer(db *DB, sink string, limit int, q oracleQuery) (rowDigest, []Warning, error) {
	if sink == "collect" {
		res, err := db.QueryArgs(q.sql, q.args...)
		if err != nil {
			return rowDigest{}, nil, err
		}
		defer res.Release()
		return digest(res.Rel), res.Warnings, nil
	}
	s := &limitSink{limit: limit}
	switch sink {
	case "stop":
		s.err = ErrStopStream
	case "fail":
		s.err = errSinkFail
	}
	res, err := db.QueryStream(context.Background(), q.sql, s, q.args...)
	if err != nil {
		return s.rows, nil, err
	}
	defer res.Release()
	return s.rows, res.Warnings, nil
}

// degradable reports whether err is an availability failure: an
// injected fault, exhausted retries, quarantine or an open breaker.
func degradable(err error) bool {
	var d interface{ Degradable() bool }
	return errors.As(err, &d) && d.Degradable()
}

// oracle holds the sequences, the references they answer to, and what
// the cells have run.
type oracle struct {
	seed       int64
	dir        string
	band       bool // the archive holds the band stations
	seqs       [][]oracleQuery
	refs       map[refKey][]rowDigest
	churnBytes int64
	covered    map[[3]string]bool // dimension, level, class
}

// refKey names a reference: a sequence's answers under one approach.
type refKey struct {
	seq int
	app string
}

// config is the cell's database configuration.
func (o *oracle) config(t *testing.T, c cell) Config {
	cfg := Config{Approach: registrar.Approach(c.lv[dApproach]), GlobalMemoryBytes: 1 << 30}
	if c.lv[dRules] != "on" {
		cfg.OptDisable = c.lv[dRules]
	}
	fmt.Sscan(c.lv[dFanout], &cfg.MaxParallel)
	switch c.lv[dTier] {
	case "churn":
		cfg.CacheBytes, cfg.CacheDir = o.churnBytes, t.TempDir()
	case "4mib":
		cfg.CacheBytes = 4 << 20
	case "warm":
		cfg.CacheDir = t.TempDir()
	}
	if spec, ok := faultSchedules[c.lv[dFaults]]; ok {
		cfg.Faults, cfg.FaultSeed, cfg.Degraded = spec, o.seed, c.lv[dFaults] != "zero"
	}
	return cfg
}

func (o *oracle) open(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := openChecked(t, o.dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := addMetadataView(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// fail reports a divergence with everything needed to replay it.
func (o *oracle) fail(t *testing.T, c cell, qi int, format string, a ...any) {
	t.Helper()
	q := o.seqs[c.seq][qi]
	t.Errorf("seed %d, sequence %d, query %d under %s: %s\n%s\nargs %v\nreplay: go test -run '%s' ./internal/engine/",
		o.seed, c.seq, qi, c, fmt.Sprintf(format, a...), q.sql, q.args, t.Name())
}

// reordered reports whether the cell's joins emit rows in another
// order than the reference's: without the joinorder rule they follow
// the order the views list their tables in.
func (c cell) reordered() bool { return c.lv[dRules] == "all" || c.lv[dRules] == opt.RuleJoinOrder }

// atReference reports whether c is its approach's reference cell, whose
// answers are the reference itself.
func (c cell) atReference() bool { return c.lv == pin(c.seq, "approach="+c.lv[dApproach]).lv }

// ref answers sequence seq in the reference cell of approach app —
// every rule on, serial loads, RAM only, no faults, collected — on a
// fresh database, once, checking after each answer that it released
// every chunk handle and governor byte. Every approach's reference
// equals eager_plain's: rows in order where ORDER BY fixes it, and
// plans; as multisets otherwise, since where nothing fixes the order,
// approaches that derive H at another time join its windows in another
// order.
func (o *oracle) ref(t *testing.T, seq int, app string) []rowDigest {
	t.Helper()
	if out, ok := o.refs[refKey{seq, app}]; ok {
		return out
	}
	c := pin(seq, "approach="+app)
	db := o.open(t, o.config(t, c))
	defer db.Close()
	out := make([]rowDigest, len(o.seqs[seq]))
	for qi, q := range o.seqs[seq] {
		got, _, err := answer(db, "collect", 0, q)
		requireReleased(t, db)
		if err != nil {
			o.fail(t, c, qi, "reference: %v", err)
			t.FailNow()
		}
		out[qi] = got
	}
	if app == string(registrar.EagerPlain) && seq == 0 {
		o.planChecks(t, db)
	}
	if app != string(registrar.EagerPlain) {
		plain := o.ref(t, seq, string(registrar.EagerPlain))
		for qi, q := range o.seqs[seq] {
			if ordered := q.ordered() || q.explain(); !match(out[qi].rows, plain[qi].rows, ordered, 0) {
				o.fail(t, c, qi, "%s, eager_plain's reference %s (ordered %v)", out[qi], plain[qi], ordered)
			}
		}
	}
	o.refs[refKey{seq, app}] = out
	return out
}

// check compares one answer — taken by a sink that stops at limit
// rows, 0 for a whole one — with a reference, bitwise. A serial replay
// returns the rows of its approach's reference in their order. Replays
// from many goroutines, which derive H's windows in another order,
// compare with eager_plain's reference: in order where ORDER BY fixes
// it, as multisets otherwise.
//
// Across join orders two things may differ and do: which of the rows
// tied at a LIMIT come back, and the last bits of a fold whose result
// depends on row order (STDDEV's recurrence, whose rows then arrive in
// the order windows were derived). There, floats compare to 10
// significant digits, rows as multisets, and a LIMIT's rows by their
// number.
func (o *oracle) check(t *testing.T, c cell, qi int, got rowDigest, limit int, serial bool) {
	t.Helper()
	q := o.seqs[c.seq][qi]
	want, ordered := o.ref(t, c.seq, string(registrar.EagerPlain))[qi], q.ordered() || q.explain()
	if serial && !c.reordered() {
		want, ordered = o.ref(t, c.seq, c.lv[dApproach])[qi], true
	}
	switch {
	case q.explain():
		// Plans name the rules that ran.
		if c.lv[dRules] == "on" && !match(got.rows, want.rows, true, limit) {
			o.fail(t, c, qi, "plan %s, reference %s", got, want)
		}
	case !c.reordered():
		if !match(got.rows, want.rows, ordered, limit) {
			o.fail(t, c, qi, "%s, reference %s (ordered %v)", got, want, ordered)
		}
	case strings.Contains(q.sql, " LIMIT "):
		if n := len(want.rows); len(got.rows) != n && !(limit > 0 && len(got.rows) >= min(limit, n) && len(got.rows) <= n) {
			o.fail(t, c, qi, "%s, reference %s", got, want)
		}
	case !match(got.rounded, want.rounded, false, limit):
		o.fail(t, c, qi, "%s, reference %s (to 10 digits, any order)", got, want)
	}
}

// replay runs the cell's sequence once on db, serially: each answer
// checked, every chunk handle and governor byte released after it. A
// twin — the same configuration, unarmed and strict — answers each
// query alongside: bitwise the same for the zero-rate schedule, the
// query without the skipped chunks for the others. It reports whether
// a query degraded.
func (o *oracle) replay(t *testing.T, c cell, db, twin *DB, pass int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(o.seed + int64(pass)))
	degraded := false
	for qi, q := range o.seqs[c.seq] {
		limit := 0
		if c.lv[dSink] == "stop" || c.lv[dSink] == "fail" {
			limit = 1 + rng.Intn(400)
		}
		got, warns, err := answer(db, c.lv[dSink], limit, q)
		requireReleased(t, db)
		// Derived windows come from whole series only: a fault while
		// deriving fails the query, degraded or not, and the client
		// retries it. Each retry derives the windows still missing, in
		// the order the strict twin derives them all.
		for try := 0; twin != nil && err != nil && strings.Contains(err.Error(), "dmd: deriving") && degradable(err) && try < 100; try++ {
			degraded = true
			got, warns, err = answer(db, c.lv[dSink], limit, q)
			requireReleased(t, db)
		}
		if err != nil && !(errors.Is(err, errSinkFail) && len(got.rows) >= limit) {
			o.fail(t, c, qi, "%v", err)
			continue
		}
		if twin == nil {
			o.check(t, c, qi, got, limit, true)
			continue
		}
		degraded = degraded || len(warns) > 0
		strict := exclusionSQL(q.sql, warns)
		want, twarns, err := answer(twin, c.lv[dSink], limit, oracleQuery{sql: strict, args: q.args})
		requireReleased(t, twin)
		switch {
		case err != nil || len(twarns) > 0:
			o.fail(t, c, qi, "strict twin: %v %v\n%s", err, twarns, strict)
		case !match(got.rows, want.rows, true, 0):
			o.fail(t, c, qi, "%s, strict minus skipped %s\nskipped %v\n%s", got, want, warns, strict)
		case len(warns) == 0:
			o.check(t, c, qi, got, limit, true)
		}
	}
	return degraded
}

// replayConcurrent runs the cell's sequence from 8 goroutines on db,
// each starting at its own query.
func (o *oracle) replayConcurrent(t *testing.T, c cell, db *DB) {
	seq := o.seqs[c.seq]
	o.ref(t, c.seq, string(registrar.EagerPlain))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for off := range seq {
				qi := (g*len(seq)/8 + off) % len(seq)
				got, _, err := answer(db, c.lv[dSink], 0, seq[qi])
				if err != nil {
					o.fail(t, c, qi, "goroutine %d: %v", g, err)
					continue
				}
				o.check(t, c, qi, got, 0, false)
			}
		}(g)
	}
	wg.Wait()
	requireReleased(t, db)
}

// cover records that c's levels answered its sequence's classes.
func (o *oracle) cover(c cell) {
	for _, q := range o.seqs[c.seq] {
		for d, l := range c.lv {
			o.covered[[3]string{lattice[d].name, l, q.class()}] = true
		}
	}
}

// runCell runs one cell's sequence — twice for the churn and warm
// tiers — and checks that the cell did what its levels name. An
// approach's reference cell only answers the reference.
func (o *oracle) runCell(t *testing.T, c cell) {
	defer o.cover(c)
	if c.atReference() {
		o.ref(t, c.seq, c.lv[dApproach])
		return
	}
	cfg := o.config(t, c)
	db := o.open(t, cfg)
	defer func() { db.Close() }()
	var twin *DB
	if c.lv[dFaults] != "none" {
		tcfg := cfg
		tcfg.Faults, tcfg.Degraded = "", false
		if tcfg.CacheDir != "" {
			tcfg.CacheDir = t.TempDir()
		}
		twin = o.open(t, tcfg)
		defer twin.Close()
	}
	passes := 1
	if c.lv[dTier] == "churn" || c.lv[dTier] == "warm" {
		passes = 2
	}
	degraded := false
	for pass := 0; pass < passes; pass++ {
		switch {
		case pass == 1 && c.lv[dTier] == "churn":
			db.waitDiskIdle()
		case pass == 1 && c.lv[dTier] == "warm":
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = o.open(t, cfg)
			if !db.WarmStart() {
				t.Fatal("no warm start on the disk tier")
			}
		}
		if c.lv[dConc] == "8" {
			o.replayConcurrent(t, c, db)
			continue
		}
		degraded = o.replay(t, c, db, twin, pass) || degraded
	}

	// The cell exercised its levels.
	switch c.lv[dTier] {
	case "churn":
		if s := db.DiskCacheStats(); s.Spills == 0 || s.Promotes == 0 {
			t.Errorf("%s: disk tier idle under churn: %+v", c, s)
		}
	case "4mib":
		if st, cs := db.ChunkStats(), db.CacheStats(); st.Topups == 0 || cs.Evictions == 0 {
			t.Errorf("%s: no top-up under eviction: %+v, %+v", c, st, cs)
		}
	case "warm":
		if n, ok := db.SourceFetches(); !ok || n != 0 {
			t.Errorf("%s: warm restart fetched %d times from the archive (counter ok=%v)", c, n, ok)
		}
		if s := db.DiskCacheStats(); s.Promotes == 0 || s.CorruptBlocks != 0 {
			t.Errorf("%s: disk tier after the restart: %+v", c, s)
		}
	}
	inj := db.FaultInjector()
	var checks, fired uint64
	for _, p := range []string{fault.PointFlight, fault.PointCacheFill, fault.PointHTTP, fault.PointDecode} {
		checks, fired = checks+inj.Checks(p), fired+inj.Fired(p)
	}
	switch c.lv[dFaults] {
	case "zero":
		if checks == 0 || fired != 0 {
			t.Errorf("%s: zero-rate schedule checked %d times, fired %d", c, checks, fired)
		}
	case "flight", "fill":
		if fired == 0 || !degraded {
			t.Errorf("%s: schedule checked %d times, fired %d, degraded a query: %v", c, checks, fired, degraded)
		}
	}
	if r := c.lv[dRules]; r == "all" || r == opt.RulePruneCols {
		if plan := o.plan(t, db, "EXPLAIN "+tQueries()[4]); strings.Contains(plan, " out=") {
			t.Errorf("%s: join output pruned with prunecols off:\n%s", c, plan)
		}
	}
}

func (o *oracle) plan(t *testing.T, db *DB, sql string) string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	return planText(res)
}

// planChecks asserts what the rules do to plans: joins emit only what
// their parents read, and on a day of the band archive, Qf keeps at
// most two windows per segment instead of every window.
func (o *oracle) planChecks(t *testing.T, db *DB) {
	if plan := o.plan(t, db, "EXPLAIN "+tQueries()[4]); !strings.Contains(plan, " out=") {
		t.Errorf("join output not pruned with every rule on:\n%s", plan)
	}
	if !o.band {
		return
	}
	explain := o.plan(t, db, fmt.Sprintf(`EXPLAIN ANALYZE SELECT COUNT(*) FROM windowdataview WHERE F.station = 'FIAM'
		AND D.sample_time >= %s AND D.sample_time < %s`, lit(bandDay), lit(bandDay.AddDate(0, 0, 1))))
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
		t.Errorf("banded Qf join: %d rows (%v), want at most %d:\n%s", n, err, 2*(len(bandLayout)+1), explain)
	}
}

// newOracle is an oracle over the archive in dir, its schedules seeded
// by seed.
func newOracle(seed int64, dir string, seqs ...[]oracleQuery) *oracle {
	return &oracle{seed: seed, dir: dir, seqs: seqs, refs: make(map[refKey][]rowDigest), covered: make(map[[3]string]bool)}
}

// sequence orders queries narrow first: wide ones then widen their
// chunks.
func sequence(qs []oracleQuery) []oracleQuery {
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].narrow() && !qs[j].narrow() })
	return qs
}

// bag is a sequence of fixed queries.
func bag(sqls []string) []oracleQuery {
	qs := make([]oracleQuery, len(sqls))
	for i, sql := range sqls {
		qs[i] = oracleQuery{sql: sql}
	}
	return sequence(qs)
}

// pin is a cell of sequence seq at the reference's levels but for the
// "dimension=level" pairs given.
func pin(seq int, levels ...string) cell {
	c := cell{seq: seq}
	for d := range lattice {
		c.lv[d] = lattice[d].levels[0]
	}
	c.lv[dApproach], c.lv[dRules] = string(registrar.EagerPlain), "on"
	for _, kv := range levels {
		name, l, _ := strings.Cut(kv, "=")
		d := 0
		for d < nDims && lattice[d].name != name {
			d++
		}
		if d == nDims || !slices.Contains(lattice[d].levels, l) {
			panic("oracle: no level " + kv)
		}
		c.lv[d] = l
	}
	return c
}

// named gives a pinned cell its subtest's name.
func (c cell) named(name string) cell { c.name = name; return c }

// run answers eager_plain's reference of every sequence, then runs each
// cell as a subtest, logging the cells.
func (o *oracle) run(t *testing.T, cells []cell) {
	for s := range o.seqs {
		o.ref(t, s, string(registrar.EagerPlain))
	}
	if slices.ContainsFunc(cells, func(c cell) bool { return c.lv[dTier] == "churn" }) {
		// The churn tier holds one and a half of the largest chunk.
		sizer := o.open(t, Config{Approach: registrar.Lazy})
		if _, _, err := answer(sizer, "collect", 0, oracleQuery{sql: `SELECT COUNT(*) FROM dataview WHERE F.station = 'FIAM' AND D.sample_time < '2010-01-02T00:00:00.000'`}); err != nil {
			t.Fatal(err)
		}
		o.churnBytes = sizer.ChunkStats().ResidentBytes * 3 / 2
		sizer.Close()
	}
	for i, c := range cells {
		name := c.name
		if name == "" {
			name = c.String()
		}
		t.Logf("cell %2d: %s (%d queries)", i, c, len(o.seqs[c.seq]))
		t.Run(name, func(t *testing.T) { o.runCell(t, c) })
	}
}

// approaches pins one cell per loading approach, each with levels.
func approaches(levels ...string) []cell {
	var cells []cell
	for _, app := range lattice[dApproach].levels {
		cells = append(cells, pin(0, append([]string{"approach=" + app}, levels...)...))
	}
	return cells
}

// TestOracle is the differential oracle of the engine's equivalences.
// Seeded sequences of queries — the fixed corpus of every query bag,
// plus generated queries over every schema — answer under a sampled
// lattice of configurations exactly as they do under the reference
// (every rule on, serial, RAM only, collected; eager_plain's, and each
// approach's own, which orders rows as eager_plain's only where ORDER
// BY does): every loading approach, rule set, ingestion fan-out, sink,
// cache tier and fault schedule, and 8 goroutines replaying a sequence
// on one database. Floats compare by their bits (to 10 significant
// digits only where joins run in another order). The archive is
// genSegRepo's multi-segment chunks with the band stations. The cells
// are sampled so that every level of every dimension answers every
// class of query at least once; the log lists them. The tests after it
// pin the cells that check one claim each, over that claim's query bag
// and archive.
func TestOracle(t *testing.T) {
	const seed, generated = 36, 8
	dir, man := genSegRepo(t)
	writeBandArchive(t, dir)
	o := newOracle(seed, dir)
	o.band = true
	rng := rand.New(rand.NewSource(seed))
	cells := sampleCells(rng)
	// Each cell runs a sequence of its own: everySequence, generated
	// queries and, if it compares bitwise, its share of the rest of the
	// corpus. Cells whose joins run in another order compare to 10
	// digits and take no share: the corpus is the other cells'.
	corpus, shared := fixedCorpus(man), len(everySequence())
	var bitwise []int
	for s, c := range cells {
		if !c.reordered() {
			bitwise = append(bitwise, s)
		}
	}
	for s := range cells {
		seq := slices.Clone(corpus[:shared])
		if k := slices.Index(bitwise, s); k >= 0 {
			for i := shared + k; i < len(corpus); i += len(bitwise) {
				seq = append(seq, corpus[i])
			}
		}
		o.seqs = append(o.seqs, sequence(append(seq, genQueries(rng, generated)...)))
	}
	o.run(t, cells)
	for d := range lattice {
		for _, l := range lattice[d].levels {
			for _, class := range oracleClasses {
				if !o.covered[[3]string{lattice[d].name, l, class}] {
					t.Errorf("%s=%q never answered a %s query", lattice[d].name, l, class)
				}
			}
		}
	}
}

// TestAllApproachesAgree is the paper's invariant: every loading
// approach answers the T1–T5 workload as eager_plain does.
func TestAllApproachesAgree(t *testing.T) {
	newOracle(1, genRepo(t, 2), bag(everySequence())).run(t, approaches())
}

// TestRandomizedLazyEagerEquivalence holds every loading approach to
// the reference over generated queries of every schema.
func TestRandomizedLazyEagerEquivalence(t *testing.T) {
	newOracle(99, genRepo(t, 3), sequence(genQueries(rand.New(rand.NewSource(99)), 24))).run(t, approaches())
}

// TestOptimizerRulesResultPreserving is the rule pipeline's acceptance
// property: under every loading approach, with any one rule off and
// with all of them off, every query returns the rows the fully
// optimized plan returns.
func TestOptimizerRulesResultPreserving(t *testing.T) {
	var cells []cell
	for _, r := range lattice[dRules].levels[1:] {
		cells = append(cells, approaches("rules="+r)...)
	}
	newOracle(2, genRepo(t, 1), bag(optDiffQueries())).run(t, cells)
}

// TestPruneColsBitwise holds plans whose joins emit every column to
// the rows, bit for bit, of plans whose joins emit only what their
// parents read, under every loading approach; the cells check that the
// rule is what flips the plan's out= list.
func TestPruneColsBitwise(t *testing.T) {
	newOracle(3, genRepo(t, 2), bag(pruneBag())).run(t, approaches("rules="+opt.RulePruneCols))
}

// TestStreamingMatchesMaterialized holds every sink to the collected
// result: a stream delivers its rows in order, and a client that stops
// or goes away after N rows took a leading part of them.
func TestStreamingMatchesMaterialized(t *testing.T) {
	var cells []cell
	for _, sink := range lattice[dSink].levels[1:] {
		cells = append(cells, approaches("sink="+sink)...)
	}
	newOracle(4, genRepo(t, 2), bag(streamingQueries())).run(t, cells)
}

// TestTierEquivalence holds the cache tiers to RAM-only answers: a
// tiny RAM cache churning every chunk through spill and promote, and a
// warm restart that fetches nothing from the archive.
func TestTierEquivalence(t *testing.T) {
	newOracle(5, genRepo(t, 2), bag(warmBag())).run(t, []cell{
		pin(0, "approach=lazy", "tier=churn").named("tiny-ram-churn"),
		pin(0, "approach=lazy", "tier=warm").named("warm-restart"),
	})
}

// TestSegmentLoadingBitwise holds segment-granular loading to the
// references bit for bit, rows in order within an approach: lazy loads
// and eager_index's, whose chunks are the lazy ones, at ingestion
// fan-outs 1 (the references), 2, 4 and 8; lazy loads through a 4 MiB
// cache in which narrow queries run before wide ones, so entries are
// widened while others are evicted, at fan-outs 1 and 4; and across a
// disk-tier warm restart. (The other approaches install whole chunks;
// TestPruneColsBitwise runs most of these queries on each.)
func TestSegmentLoadingBitwise(t *testing.T) {
	dir, man := genSegRepo(t)
	var cells []cell
	for _, f := range lattice[dFanout].levels {
		cells = append(cells, pin(0, "approach=lazy", "fanout="+f))
	}
	cells = append(cells, pin(0, "approach=eager_index"), pin(0, "approach=eager_index", "fanout=4"))
	newOracle(6, dir, bag(segmentQueries(man))).run(t, append(cells,
		pin(0, "approach=lazy", "tier=4mib").named("4MiB-narrow-then-wide"),
		pin(0, "approach=lazy", "tier=4mib", "fanout=4"),
		pin(0, "approach=lazy", "tier=warm").named("disk-tier-warm-restart")))
}

// TestChaosDegradedEqualsStrictMinusSkipped is the chaos invariant: a
// degraded result equals the strict result of the same query with the
// skipped chunks excluded, at ingestion fan-outs 1 and 4, collected and
// streamed.
func TestChaosDegradedEqualsStrictMinusSkipped(t *testing.T) {
	var cells []cell
	for _, f := range []string{"flight", "fill"} {
		for _, par := range []string{"1", "4"} {
			for _, sink := range []string{"collect", "stream"} {
				cells = append(cells, pin(0, "approach=lazy", "faults="+f, "fanout="+par, "sink="+sink))
			}
		}
	}
	newOracle(7, genRepo(t, 3), bag(chaosBag())).run(t, cells)
}

// TestChaosDiskTierDegraded is the chaos invariant with every chunk
// churning through the disk tier, where promote-path fills fail too.
func TestChaosDiskTierDegraded(t *testing.T) {
	newOracle(8, genRepo(t, 2), bag(chaosBag())).run(t, []cell{
		pin(0, "approach=lazy", "tier=churn", "faults=fill"),
		pin(0, "approach=lazy", "tier=churn", "faults=flight"),
	})
}

// TestConcurrentStressAllApproaches replays the mixed workload from 8
// goroutines on one database per loading approach, and on a lazy one
// whose tiny RAM cache evicts chunks other queries are scanning.
func TestConcurrentStressAllApproaches(t *testing.T) {
	cells := []cell{pin(0, "approach=lazy", "tier=churn", "conc=8").named("lazy-small-cache")}
	for _, c := range approaches("conc=8") {
		cells = append(cells, c.named(c.lv[dApproach]))
	}
	newOracle(9, genRepo(t, 2), bag(stressQueries())).run(t, cells)
}

// TestParallelQueriesAllApproachesRace replays the mixed workload,
// streamed, from 8 goroutines on one database per loading approach
// whose chunk ingestion fans out 4 wide, so loads overlap while many
// queries are in flight.
func TestParallelQueriesAllApproachesRace(t *testing.T) {
	var cells []cell
	for _, c := range approaches("fanout=4", "sink=stream", "conc=8") {
		cells = append(cells, c.named(c.lv[dApproach]))
	}
	newOracle(10, genRepo(t, 2), bag(stressQueries())).run(t, cells)
}

// TestWindowBandOracle holds the stage-1 time band to the rows without
// it: generated windowdataview queries over the band archive answer as
// the reference does under every loading approach with rangeinfer, and
// with it the band, on; and with rangeinfer off under eager_plain, lazy
// (H derived per query) and eager_dmd (H derived at load). The
// reference's plan checks assert that the band is in force.
func TestWindowBandOracle(t *testing.T) {
	dir := t.TempDir()
	writeBandArchive(t, dir)
	o := newOracle(11, dir, sequence(bandQueries(7, 60)))
	o.band = true
	cells := approaches()
	for _, app := range []registrar.Approach{registrar.EagerPlain, registrar.Lazy, registrar.EagerDMd} {
		cells = append(cells, pin(0, "approach="+string(app), "rules="+opt.RuleRangeInfer))
	}
	o.run(t, cells)
}
