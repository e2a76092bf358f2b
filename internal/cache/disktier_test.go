package cache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"sommelier/internal/storage"
)

// tierRel builds a small chunk-shaped relation (time, value columns).
func tierRel(rows int, seed int64) *storage.Relation {
	times := make([]int64, rows)
	vals := make([]float64, rows)
	for i := 0; i < rows; i++ {
		times[i] = seed + int64(i)*20_000_000
		vals[i] = float64(i) + float64(seed)
	}
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(storage.NewTimeColumn(times), storage.NewFloat64Column(vals)))
	return rel
}

func requireSameRows(t *testing.T, want, got *storage.Relation) {
	t.Helper()
	if want.Rows() != got.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), want.Rows())
	}
	wb, gb := want.Batches(), got.Batches()
	if len(wb) != len(gb) {
		t.Fatalf("batches = %d, want %d", len(gb), len(wb))
	}
	for bi := range wb {
		for ci := range wb[bi].Cols {
			for i := 0; i < wb[bi].Len(); i++ {
				if storage.ValueAt(wb[bi].Cols[ci], i) != storage.ValueAt(gb[bi].Cols[ci], i) {
					t.Fatalf("batch %d col %d row %d differs", bi, ci, i)
				}
			}
		}
	}
}

func TestDiskTierSpillPromoteRoundtrip(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	rels := map[int64]*storage.Relation{}
	for id := int64(1); id <= 5; id++ {
		rels[id] = tierRel(200, id*1000)
		dt.Spill(id, rels[id], nil, nil)
	}
	dt.WaitIdle()
	for id, want := range rels {
		if !dt.Contains(id) {
			t.Fatalf("chunk %d not on disk after spill", id)
		}
		got := dt.Promote(id)
		if got == nil {
			t.Fatalf("promote %d missed", id)
		}
		requireSameRows(t, want, got)
	}
	s := dt.Stats()
	if s.Spills != 5 || s.Promotes != 5 || s.Hits != 5 || s.CorruptBlocks != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if dt.Promote(99) != nil {
		t.Fatal("promote of unknown chunk succeeded")
	}
}

func TestDiskTierWarmReopen(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := tierRel(300, 7)
	dt.SpillSync(42, want)
	dt.WaitIdle()
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean Close writes the footer; the next Open must serve the
	// block without help from any other tier.
	dt2, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt2.Close()
	got := dt2.Promote(42)
	if got == nil {
		t.Fatal("block lost across reopen")
	}
	requireSameRows(t, want, got)
	// And the reopened segment accepts new appends after the footer.
	more := tierRel(100, 9)
	dt2.SpillSync(43, more)
	dt2.WaitIdle()
	if !dt2.Contains(43) {
		t.Fatal("append after reopen failed")
	}
}

func TestDiskTierCapacityRefusal(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 600)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	dt.SpillSync(1, tierRel(4, 1))
	dt.WaitIdle()
	if !dt.Contains(1) {
		t.Fatal("small block refused under capacity")
	}
	// A block that would exceed the cap is refused, not admitted by
	// evicting residents: the tier is append-only.
	dt.SpillSync(2, tierRel(100_000, 2))
	dt.WaitIdle()
	if dt.Contains(2) {
		t.Fatal("oversized block admitted past capacity")
	}
	s := dt.Stats()
	if s.SpillRefused == 0 {
		t.Fatalf("stats = %+v, want a refused spill", s)
	}
	if !dt.Contains(1) {
		t.Fatal("resident block lost to a refused spill")
	}
}

// corruptTier builds a cleanly closed one-block segment and returns
// the segment path.
func corruptTier(t *testing.T, dir string) string {
	t.Helper()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	dt.SpillSync(1, tierRel(500, 3))
	dt.WaitIdle()
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "D.seg")
}

// requireQuarantined opens the tier over a damaged segment and
// asserts detect-and-quarantine: the file is renamed to .corrupt, the
// tier starts fresh and serves nothing wrong.
func requireQuarantined(t *testing.T, dir, path, kind string) {
	t.Helper()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatalf("%s: open over damaged segment: %v", kind, err)
	}
	defer dt.Close()
	if dt.Promote(1) != nil {
		t.Fatalf("%s: promote served data from a damaged segment", kind)
	}
	if s := dt.Stats(); s.CorruptSegments != 1 || s.Blocks != 0 {
		t.Fatalf("%s: stats = %+v, want 1 corrupt segment, 0 blocks", kind, s)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("%s: quarantine file missing: %v", kind, err)
	}
}

func TestDiskTierTruncatedSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := corruptTier(t, dir)
	// A kill during spill leaves a segment without its footer: chop the
	// tail off.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	requireQuarantined(t, dir, path, "truncated")
}

func TestDiskTierFlippedByteQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := corruptTier(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped bit in the middle of a block body must fail the
	// open-time CRC sweep.
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	requireQuarantined(t, dir, path, "flipped byte")
}

func TestDiskTierMissingFooterQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := corruptTier(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the trailer magic: the segment looks whole but was
	// never cleanly closed.
	copy(data[len(data)-4:], "XXXX")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	requireQuarantined(t, dir, path, "missing footer")
}

// TestDiskTierHugeFooterLengthQuarantined: a footer whose CRC is valid
// but whose block length is at least 2^63 is quarantined at open, not
// read as a negative slice bound; so is one claiming far more entries
// than its bytes hold, before that count sizes anything.
func TestDiskTierHugeFooterLengthQuarantined(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		what          string
		count, length uint64
	}{{"huge footer length", 1, 1<<63 + 2}, {"huge footer count", 1 << 20, 8}} {
		path := corruptTier(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		footOff := binary.LittleEndian.Uint64(data[len(data)-segTrailerLen:])
		foot := binary.AppendUvarint([]byte(segFooterMagic), c.count)
		foot = binary.AppendVarint(foot, 1)
		foot = binary.AppendUvarint(foot, segHeaderLen)
		foot = binary.AppendUvarint(foot, c.length)
		foot = binary.LittleEndian.AppendUint32(foot, 0)
		foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
		foot = binary.LittleEndian.AppendUint64(foot, footOff)
		foot = append(foot, segTrailMagic...)
		if err := os.WriteFile(path, append(data[:footOff:footOff], foot...), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		requireQuarantined(t, dir, path, c.what)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: open allocated %d bytes", c.what, grew)
		}
	}

	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	want := tierRel(100, 9)
	dt.SpillSync(7, want)
	dt.WaitIdle()
	got := dt.Promote(7)
	if got == nil {
		t.Fatal("the fresh segment does not serve")
	}
	requireSameRows(t, want, got)
}

func TestDiskTierBitRotAfterOpenDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	dt.SpillSync(1, tierRel(500, 3))
	dt.WaitIdle()
	// Flip a byte in the block body behind the tier's back (bit rot
	// after the open-time verification).
	path := filepath.Join(dir, "D.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+blockHdrLen+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if dt.Promote(1) != nil {
		t.Fatal("promote served a rotten block")
	}
	s := dt.Stats()
	if s.CorruptBlocks != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt block", s)
	}
	if dt.Contains(1) {
		t.Fatal("rotten block still indexed")
	}
}

func TestDiskTierDuplicateSpillIgnored(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	rel := tierRel(50, 1)
	dt.SpillSync(1, rel)
	dt.WaitIdle()
	dt.Spill(1, rel, nil, nil)
	dt.SpillSync(1, rel)
	dt.WaitIdle()
	if s := dt.Stats(); s.Spills != 1 {
		t.Fatalf("spills = %d, want 1 (chunks are immutable per ID)", s.Spills)
	}
}

func TestDiskTierSpillAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	dt.Spill(1, tierRel(10, 1), nil, nil) // must not panic or enqueue
	if dt.Contains(1) {
		t.Fatal("spill accepted after close")
	}
}

// TestDiskTierOlderSegmentVersionDiscarded: a segment file written by
// the previous format version (plain columns only, version byte 1) is
// set aside whole at open, never decoded — the tier comes up empty with
// no block counted corrupt, every promote is a miss (the executor's
// next step is the archive), and the tier spills and serves afresh.
func TestDiskTierOlderSegmentVersionDiscarded(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	dt.SpillSync(42, tierRel(300, 7))
	dt.WaitIdle()
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	// What differs between a version-1 file and this one is the header
	// byte: the framing and the plain-column bodies are the same.
	path := filepath.Join(dir, "D.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != segVersion {
		t.Fatalf("header version byte = %d, want %d", data[4], segVersion)
	}
	data[4] = 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dt2, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt2.Close()
	if dt2.Contains(42) || dt2.Promote(42) != nil {
		t.Fatal("a block of the older version was served")
	}
	if s := dt2.Stats(); s.Blocks != 0 || s.CorruptBlocks != 0 || s.Misses != 1 || s.CorruptSegments != 1 {
		t.Fatalf("stats = %+v, want an empty tier, one miss, no corrupt block", s)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("the older file was not set aside: %v", err)
	}
	want := tierRel(100, 9)
	dt2.SpillSync(42, want)
	dt2.WaitIdle()
	got := dt2.Promote(42)
	if got == nil {
		t.Fatal("the fresh segment does not serve")
	}
	requireSameRows(t, want, got)
}

// TestDiskTierSpillDone: a spill reports that the tier no longer reads
// its relation exactly once on every path — encoded, redundant (already
// on disk), refused by a full queue, and after close — so its owner can
// reuse the memory.
func TestDiskTierSpillDone(t *testing.T) {
	dt, err := OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	done := map[int64]int{}
	var mu sync.Mutex
	spill := func(id int64) {
		dt.Spill(id, tierRel(50, id), nil, func() {
			mu.Lock()
			done[id]++
			mu.Unlock()
		})
	}
	spill(1)
	dt.WaitIdle()
	spill(1) // already on disk
	for id := int64(2); id < 2+2*spillQueueLen; id++ {
		spill(id) // some refused by the full queue
	}
	dt.WaitIdle()
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	spill(9999) // after close
	mu.Lock()
	defer mu.Unlock()
	if done[1] != 2 || done[9999] != 1 {
		t.Fatalf("done calls: chunk 1 %d, after close %d", done[1], done[9999])
	}
	for id := int64(2); id < 2+2*spillQueueLen; id++ {
		if done[id] != 1 {
			t.Fatalf("chunk %d: done called %d times", id, done[id])
		}
	}
}

// TestDiskTierBlockLayout pins the segment format the writer appends: a
// 16-byte header (chunk ID, body length, CRC32 of the body) followed by
// the storage.EncodeRelation body, back to back after the file header.
func TestDiskTierBlockLayout(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for id := int64(1); id <= 3; id++ {
		rel := tierRel(100*int(id), id)
		body, err := storage.EncodeRelation(nil, rel)
		if err != nil {
			t.Fatal(err)
		}
		want = binary.LittleEndian.AppendUint64(want, uint64(id))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(body)))
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
		want = append(want, body...)
		dt.SpillSync(id, rel)
		dt.WaitIdle()
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "D.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if got := data[segHeaderLen:]; len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatal("blocks differ from header + EncodeRelation body")
	}
}

// chunkRel is a chunk-shaped relation of rows rows — file_id,
// segment_id and window_ts runs, sample_time, sample_value — in
// batches of storage.BatchSize, like one loaded seismic chunk.
func chunkRel(rows int) *storage.Relation {
	var (
		batches []*storage.Batch
		zones   [][]storage.Zone
	)
	for lo := 0; lo < rows; lo += storage.BatchSize {
		n := min(storage.BatchSize, rows-lo)
		ts, vs := make([]int64, n), make([]float64, n)
		for i := range ts {
			ts[i] = int64(lo+i) * 10_000_000
			vs[i] = float64((lo+i)*7919%2001 - 1000)
		}
		run := func(kind storage.Kind, v int64) storage.Column {
			return storage.NewRunColumn(kind, []int64{v}, []int32{int32(n)})
		}
		cols := []storage.Column{
			run(storage.KindInt64, 5), run(storage.KindInt64, int64(lo/storage.BatchSize)),
			storage.NewTimeColumn(ts), storage.NewFloat64Column(vs), run(storage.KindTime, ts[0]),
		}
		zs := make([]storage.Zone, len(cols))
		for i, c := range cols {
			zs[i] = storage.ColumnZone(c)
		}
		batches, zones = append(batches, storage.NewBatch(cols...)), append(zones, zs)
	}
	return storage.NewChunkRelation(batches, zones)
}

// BenchmarkPromote is one disk-tier promote of a 40 000-row chunk into
// fresh memory — what every promote paid before chunk memory was
// recycled — against one into a recycled arena and read buffer.
func BenchmarkPromote(b *testing.B) {
	dt, err := OpenDiskTier(b.TempDir(), "D", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer dt.Close()
	dt.SpillSync(1, chunkRel(40_000))
	dt.WaitIdle()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dt.Promote(1) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("recycled", func(b *testing.B) {
		var arena storage.Arena
		mem := &storage.ChunkMem{NewArena: func(ints, floats int) storage.Arena {
			if cap(arena.Ints) < ints || cap(arena.Floats) < floats {
				arena = storage.Arena{Ints: make([]int64, ints), Floats: make([]float64, floats)}
			}
			return storage.Arena{Ints: arena.Ints[:ints], Floats: arena.Floats[:floats]}
		}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rel, _ := dt.PromoteInto(1, nil, mem); rel == nil {
				b.Fatal("miss")
			}
		}
	})
}
