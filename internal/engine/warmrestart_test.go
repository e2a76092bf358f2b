package engine

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/seismic"
)

func runWarmBag(t *testing.T, db *DB) []string {
	t.Helper()
	var out []string
	for qi, sql := range warmBag() {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		out = append(out, digest(res.Rel).String())
		res.Release()
	}
	return out
}

// TestCacheDirBoundToArchive: a cache directory populated from one
// archive must not serve its segments to a different archive — chunk
// IDs are positional, so cross-archive promotion would be wrong data.
// Re-pointing the dir wipes segments and snapshots and re-binds the
// fingerprint sidecar.
func TestCacheDirBoundToArchive(t *testing.T) {
	cacheDir := t.TempDir()

	dirA := genRepo(t, 2)
	db, err := openChecked(t, dirA, Config{Approach: registrar.Lazy, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	runWarmBag(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "D.seg")); err != nil {
		t.Fatalf("archive A left no segment: %v", err)
	}

	// Same generator, different directory: the URI list (and so the
	// fingerprint) differs even though the bytes happen to match —
	// exactly the case where silent reuse would go unnoticed.
	dirB := genRepo(t, 2)
	ref := open(t, dirB, registrar.Lazy)
	want := runWarmBag(t, ref)

	db2, err := openChecked(t, dirB, Config{Approach: registrar.Lazy, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if db2.WarmStart() {
		t.Fatal("warm start against a different archive's cache dir")
	}
	got := runWarmBag(t, db2)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d wrong after re-pointing cache dir", i)
		}
	}
	if s := db2.DiskCacheStats(); s.Promotes != 0 {
		t.Fatalf("promoted %d blocks from another archive's segment", s.Promotes)
	}
	if n, ok := db2.SourceFetches(); !ok || n == 0 {
		t.Fatalf("expected archive B fetches after the wipe, got %d (ok=%v)", n, ok)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// The dir is now bound to B: the next open warm-starts again.
	db3, err := openChecked(t, dirB, Config{Approach: registrar.Lazy, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if !db3.WarmStart() {
		t.Fatal("re-bound cache dir did not warm-start its own archive")
	}
	if err := db3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartCorruptSegmentRefetches is the crash-safety story end
// to end: damage the segment file between runs, and the next open must
// quarantine it and transparently refetch from the archive — degraded
// performance, identical answers.
func TestWarmRestartCorruptSegmentRefetches(t *testing.T) {
	dir := genRepo(t, 2)
	cacheDir := t.TempDir()

	ref := open(t, dir, registrar.Lazy)
	want := runWarmBag(t, ref)

	db, err := openChecked(t, dir, Config{Approach: registrar.Lazy, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	runWarmBag(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in a block body: the open-time sweep must catch it.
	segPath := filepath.Join(cacheDir, "D.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := openChecked(t, dir, Config{Approach: registrar.Lazy, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if !db2.WarmStart() {
		t.Fatal("metadata snapshot should survive a corrupt segment")
	}
	if s := db2.DiskCacheStats(); s.CorruptSegments != 1 {
		t.Fatalf("disk stats = %+v, want 1 quarantined segment", s)
	}
	if _, err := os.Stat(segPath + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	got := runWarmBag(t, db2)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d wrong after quarantine:\ngot:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
	// The data came back from the archive, not the damaged cache.
	if n, ok := db2.SourceFetches(); !ok || n == 0 {
		t.Fatalf("expected archive refetches after quarantine, got %d (ok=%v)", n, ok)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedSnapshotRoundTrip: the derived-metadata view H survives a
// Close → Open over the same cache dir (it rides in meta.snap), and the
// restarted engine reuses the restored windows instead of deriving them
// again — with the same answer.
func TestDerivedSnapshotRoundTrip(t *testing.T) {
	dir := genRepo(t, 2)
	cfg := Config{Approach: registrar.Lazy, CacheDir: t.TempDir()}
	db, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(tQueries()[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.DMd.Computed == 0 {
		t.Fatal("nothing derived")
	}
	want := digest(res.Rel).String()
	res.Release()
	derived := db.MaterializedWindows()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.MaterializedWindows() != derived {
		t.Fatalf("restored %d windows, want %d", db2.MaterializedWindows(), derived)
	}
	res2, err := db2.Query(tQueries()[2])
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Release()
	if res2.DMd.Computed != 0 {
		t.Fatalf("restored view recomputed %d windows", res2.DMd.Computed)
	}
	if digest(res2.Rel).String() != want {
		t.Fatal("restored view changed the answer")
	}
}

// TestWarmRestartDamagedSnapshot: a meta.snap that fails verification —
// a flipped byte in the H body, a truncated tail, a valid v1 file —
// means a cold start with RAM-only answers, and no row of the damaged
// file reaches F, S or H.
func TestWarmRestartDamagedSnapshot(t *testing.T) {
	dir := genRepo(t, 2)
	ref := open(t, dir, registrar.Lazy)
	want := runWarmBag(t, ref)

	cfg := Config{Approach: registrar.Lazy, CacheDir: t.TempDir()}
	db, err := openChecked(t, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runWarmBag(t, db)
	if db.MaterializedWindows() == 0 {
		t.Fatal("the bag derived no windows: the snapshot's H body is empty")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(cfg.CacheDir, metaSnapFile)
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	hStart, hEnd := snapBodyOffsets(t, good)[2], len(good)-4

	cases := map[string]func(b []byte) []byte{
		"flipped-h-body": func(b []byte) []byte {
			b[(hStart+hEnd)/2] ^= 0x10
			return b
		},
		"truncated-tail": func(b []byte) []byte { return b[:len(b)-7] },
		"v1-header": func(b []byte) []byte {
			b[len(metaSnapMagic)] = 1
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
			return b
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(snapPath, damage(append([]byte(nil), good...)), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := openChecked(t, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Close rewrites a good snapshot; the next case damages its own copy.
			defer db.Close()
			if db.WarmStart() {
				t.Fatal("warm start from a damaged snapshot")
			}
			if hT, _ := db.cat.Table(seismic.TableH); hT.Rows() != 0 || db.MaterializedWindows() != 0 {
				t.Fatalf("H holds %d rows (%d materialized) before any query", hT.Rows(), db.MaterializedWindows())
			}
			for _, tn := range []string{seismic.TableF, seismic.TableS} {
				got, _ := db.cat.Table(tn)
				exp, _ := ref.cat.Table(tn)
				if got.Rows() != exp.Rows() {
					t.Fatalf("%s holds %d rows, RAM-only reference %d", tn, got.Rows(), exp.Rows())
				}
			}
			got := runWarmBag(t, db)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("query %d diverges after a damaged snapshot:\ngot:\n%s\nwant:\n%s", i, got[i], want[i])
				}
			}
		})
	}
}

// snapBodyOffsets returns where each relation body of a meta.snap
// starts: after the magic, the version, the fingerprint and the segment
// count, each body is a uvarint length and the bytes.
func snapBodyOffsets(t *testing.T, b []byte) []int {
	t.Helper()
	off := len(metaSnapMagic) + 1
	uv := func() int {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			t.Fatal("malformed snapshot header")
		}
		off += n
		return int(v)
	}
	off += uv() // fingerprint
	uv()        // segment count
	var starts []int
	for range snapTables {
		n := uv()
		starts = append(starts, off)
		off += n
	}
	return starts
}
