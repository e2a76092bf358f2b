package engine

// Warm restarts: with Config.CacheDir set, Close persists everything a
// restarted process needs to skip the cold-start tax —
//
//	D.seg      the disk cache tier's segment file (spilled chunks plus
//	           a Close-time flush of the RAM-resident working set)
//	meta.snap  the F/S metadata tables and the derived-metadata view H
//	           (its materialized windows, in key order) in the segment
//	           codec, keyed by a fingerprint of the archive's URI list
//	plans.txt  the plan cache's normalized-SQL keys, hot-first
//
// — and the next Open re-opens segments, rebuilds the metadata view
// and pre-compiles the hot statement set without touching a single
// raw-miniSEED byte. Every load is best-effort and verified: a
// missing, mismatched (different archive) or corrupt snapshot falls
// back to a cold start, never to wrong answers. A `fingerprint`
// sidecar binds the directory as a whole to one archive: pointed at a
// different one, everything — segments included — is wiped first.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"

	"sommelier/internal/cache"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

const (
	metaSnapFile    = "meta.snap"
	dmdSnapFile     = "dmd.snap" // H's own file before meta.snap v2 carried it
	plansFile       = "plans.txt"
	fingerprintFile = "fingerprint"

	metaSnapMagic = "SOMM"
	// metaSnapVersion 3: H in key order, its standard deviations the
	// executor's Welford fold. A v2 snapshot (H in derivation order,
	// two-pass deviations) is not restored; the start is cold.
	metaSnapVersion = 3
	plansHeader     = "sommelier-plans-v1"
)

// snapshotFingerprint identifies the archive a snapshot was built
// from: a hash over the ordered URI list. Chunk IDs are positional, so
// any change to the list (content, order, count) must invalidate the
// snapshot AND the segment file's chunk blocks.
func snapshotFingerprint(uris []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", len(uris))
	for _, u := range uris {
		fmt.Fprintf(h, "%s\n", u)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ensureCacheFingerprint binds the whole cache directory — segment
// files included, not just the metadata snapshot — to one archive. The
// snapshot carries its own embedded fingerprint, but segment blocks
// are keyed by positional chunk ID alone: pointed at a different
// archive, a stale segment would promote the *previous* archive's data
// under the new archive's IDs. So on mismatch (or a populated dir with
// no sidecar at all) every snapshot and segment is removed before the
// disk tier opens, and the sidecar is rewritten for the new archive.
func ensureCacheFingerprint(dir, fingerprint string) error {
	path := filepath.Join(dir, fingerprintFile)
	if prev, err := os.ReadFile(path); err == nil && string(prev) == fingerprint {
		// Same archive: only a leftover dmd.snap is stale (H lives in
		// meta.snap now, and nothing reads the old file).
		if err := os.Remove(filepath.Join(dir, dmdSnapFile)); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	stale := []string{
		filepath.Join(dir, metaSnapFile),
		filepath.Join(dir, dmdSnapFile),
		filepath.Join(dir, plansFile),
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.seg.corrupt"))
	stale = append(append(stale, segs...), quarantined...)
	for _, p := range stale {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fingerprint), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// snapTables are the tables meta.snap carries, in file order: the
// given metadata F and S, and the derived-metadata view H.
var snapTables = []string{seismic.TableF, seismic.TableS, seismic.TableH}

// saveMetaSnapshot writes F, S, H plus the segment count in one
// CRC-guarded file (via a temp-file rename, so a crash mid-write leaves
// no half-snapshot behind).
func (db *DB) saveMetaSnapshot(path, fingerprint string) error {
	var scratch [binary.MaxVarintLen64]byte
	buf := append([]byte(metaSnapMagic), metaSnapVersion)
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf = append(buf, scratch[:n]...)
	}
	putUvarint(uint64(len(fingerprint)))
	buf = append(buf, fingerprint...)
	db.reportMu.Lock()
	nSegs := db.report.Segments
	db.reportMu.Unlock()
	putUvarint(uint64(nSegs))
	for _, tn := range snapTables {
		t, _ := db.cat.Table(tn)
		rel := t.Data()
		if tn == seismic.TableH {
			rel = db.dmd.Snapshot()
		}
		body, err := storage.EncodeRelation(nil, rel)
		if err != nil {
			return err
		}
		putUvarint(uint64(len(body)))
		buf = append(buf, body...)
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, crcb[:]...)

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadMetaSnapshot restores F, S and H into a fresh catalog if (and
// only if) the snapshot verifies against the current archive
// fingerprint and its S holds the segment count it records. It reports
// that count; a nil catalog means "cold start, please", and nothing
// read from the file is kept.
func loadMetaSnapshot(path, fingerprint string) (cat *table.Catalog, nSegs int) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0
	}
	if len(buf) < len(metaSnapMagic)+1+4 {
		return nil, 0
	}
	payload, crcb := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcb) {
		return nil, 0
	}
	if string(payload[:4]) != metaSnapMagic || payload[4] != metaSnapVersion {
		return nil, 0
	}
	rd := payload[5:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, false
		}
		rd = rd[n:]
		return v, true
	}
	fpLen, k := next()
	if !k || uint64(len(rd)) < fpLen {
		return nil, 0
	}
	if string(rd[:fpLen]) != fingerprint {
		return nil, 0 // different archive: snapshot is for someone else
	}
	rd = rd[fpLen:]
	segs, k := next()
	if !k {
		return nil, 0
	}
	cat = seismic.NewCatalog()
	for _, tn := range snapTables {
		bodyLen, k := next()
		if !k || uint64(len(rd)) < bodyLen {
			return nil, 0
		}
		rel, err := storage.DecodeRelation(rd[:bodyLen])
		if err != nil {
			return nil, 0
		}
		rd = rd[bodyLen:]
		// The rows become the long-lived metadata tables, appended in one
		// merge (schema and PK checks included — a snapshot that lies
		// fails the restore).
		t, _ := cat.Table(tn)
		if rel.Rows() == 0 {
			continue
		}
		if err := t.Append(rel.Flatten()); err != nil {
			return nil, 0
		}
	}
	if s, _ := cat.Table(seismic.TableS); len(rd) != 0 || uint64(s.Data().Rows()) != segs {
		return nil, 0
	}
	return cat, int(segs)
}

// savePlans persists the plan cache's normalized-SQL keys (hot-first,
// one quoted string per line).
func (db *DB) savePlans(path string) error {
	keys := db.plans.Keys()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, plansHeader)
	for _, k := range keys {
		fmt.Fprintln(w, strconv.Quote(k))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// precompilePlans re-compiles a persisted statement set into the plan
// cache. Best-effort: statements that no longer compile (a view not
// yet re-registered, a changed schema) are skipped.
func (db *DB) precompilePlans(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() || sc.Text() != plansHeader {
		return
	}
	for sc.Scan() {
		sql, err := strconv.Unquote(sc.Text())
		if err != nil {
			continue
		}
		_, _ = db.Prepare(sql)
	}
}

// Close flushes the warm-restart state — the RAM-resident working set
// into the disk tier, the metadata snapshot (H included), the plan
// keys — and closes the segment file (writing its
// footer index; only a cleanly closed segment passes the next Open's
// verification). Without a CacheDir it is a cheap no-op. Queries must
// have drained; Close does not fence against concurrent use.
func (db *DB) Close() error {
	if db.cacheDir == "" {
		return nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Chunks still resident in RAM were never evicted, so they never
	// spilled: flush them now, or the next start pays the archive for
	// exactly the hottest data.
	db.chunks.Flush()
	keep(db.saveMetaSnapshot(filepath.Join(db.cacheDir, metaSnapFile), db.fingerprint))
	keep(db.savePlans(filepath.Join(db.cacheDir, plansFile)))
	if db.disk != nil {
		keep(db.disk.Close())
	}
	return firstErr
}

// DiskCacheStats snapshots the disk tier's counters; the zero value
// when no disk tier is configured.
func (db *DB) DiskCacheStats() cache.DiskTierStats { return db.disk.Stats() }

// DiskTierEnabled reports whether a persistent cache tier is wired in.
func (db *DB) DiskTierEnabled() bool { return db.disk != nil }

// WarmStart reports whether this DB skipped metadata registration by
// restoring a snapshot (a warm restart).
func (db *DB) WarmStart() bool { return db.warmStart }

// SourceFetches reports how many raw archive opens the underlying
// chunk source has served, when the source counts them (local and HTTP
// repositories both do). ok=false means the source cannot say.
func (db *DB) SourceFetches() (n int64, ok bool) {
	if fc, okc := db.repo.(interface{ FetchCount() int64 }); okc {
		return fc.FetchCount(), true
	}
	return 0, false
}

// waitDiskIdle blocks until queued spills are written; tests use it.
func (db *DB) waitDiskIdle() { db.disk.WaitIdle() }
