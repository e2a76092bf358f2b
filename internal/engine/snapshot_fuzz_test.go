package engine

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

// FuzzLoadMetaSnapshot: meta.snap is outside bytes once the process
// restarts. Whatever they are, loadMetaSnapshot does not panic, and it
// returns nil or a catalog whose F, S and H hold the rows the
// snapshot's bodies hold, S as many as the segment count it records.
// Seeded with a real snapshot; the fuzzed bytes are the snapshot without
// its CRC, which the target appends, so mutations reach the parser.
func FuzzLoadMetaSnapshot(f *testing.F) {
	dir := genRepo(f, 1)
	cacheDir := f.TempDir()
	db, err := Open(dir, Config{Approach: registrar.Lazy, CacheDir: cacheDir})
	if err != nil {
		f.Fatal(err)
	}
	_, err = db.Query(tQueries()[2]) // derives H
	if err != nil {
		f.Fatal(err)
	}
	fingerprint := db.fingerprint
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(cacheDir, metaSnapFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap[:len(snap)-4])

	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), metaSnapFile)
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cat, nSegs := loadMetaSnapshot(path, fingerprint)
		if cat == nil {
			return
		}
		// The framing, read again: magic and version, the fingerprint,
		// the segment count, then one body per table.
		rd := payload[len(metaSnapMagic)+1:]
		next := func() uint64 {
			v, n := binary.Uvarint(rd)
			rd = rd[n:]
			return v
		}
		rd = rd[next():]
		if segs := next(); segs != uint64(nSegs) {
			t.Fatalf("reported %d segments, the header records %d", nSegs, segs)
		}
		for _, tn := range snapTables {
			n := next()
			rel, err := storage.DecodeRelation(rd[:n])
			if err != nil {
				t.Fatalf("%s: restored from a body that does not decode: %v", tn, err)
			}
			rd = rd[n:]
			if tbl, _ := cat.Table(tn); tbl.Data().Rows() != rel.Rows() {
				t.Fatalf("%s holds %d rows, its body %d", tn, tbl.Data().Rows(), rel.Rows())
			}
		}
		if s, _ := cat.Table(snapTables[1]); s.Data().Rows() != nSegs {
			t.Fatalf("S holds %d rows, the header records %d segments", s.Data().Rows(), nSegs)
		}
	})
}
