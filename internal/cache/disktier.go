package cache

// DiskTier is the second level of the cache hierarchy: decoded chunks
// evicted from the RAM recycler spill to a single-writer segment file
// per table, and cache misses promote blocks back to RAM instead of
// re-reading raw miniSEED from the archive.
//
// Segment file layout (<dir>/<table>.seg):
//
//	header   "SOMS" + version byte
//	blocks   [8B chunkID][4B bodyLen][4B CRC32(body)][body]...
//	footer   "SOMF" + uvarint nBlocks
//	         + per block: varint chunkID, uvarint off, uvarint len, 4B CRC,
//	           uvarint n + n varint segment IDs (its coverage; n = 0:
//	           the whole chunk, stored as n = 1 + the ID count otherwise)
//	         + 4B CRC32(footer payload)
//	trailer  [8B footer offset]["SOME"]
//
// Bodies are storage.EncodeRelation block bodies (zigzag-varint
// ints/times, raw little-endian float64, embedded per-batch zone
// maps). All fixed-width integers are little-endian.
//
// Crash safety is detect-and-quarantine: the footer is written only by
// a clean Close, and Open re-verifies the trailer magic, the footer
// CRC and every block CRC before trusting a byte. Any failure — a
// truncated tail from a kill during spill, a flipped bit in a block
// body, a missing footer — renames the whole file to <name>.corrupt
// and starts fresh; the data is simply refetched from the archive
// tier, so corruption can cost performance but never correctness. A
// block whose CRC fails at promote time (bit rot after open) is
// dropped from the index the same way, at block granularity.
//
// A block holds the segments of its chunk that its coverage names (see
// Covers), and serves only promotes it covers. A chunk's block is
// superseded — re-indexed to a newer block, the old bytes left dead in
// the file, still counting toward the capacity until the next open
// reclaims them — only by a spill that covers strictly more.
//
// Spills are asynchronous: an eviction happens on the path of the query
// whose load made it, so Spill only enqueues and a single background
// writer goroutine encodes and appends. The spilled relation is
// immutable, and its owner keeps its memory from being reused until
// the writer reports it encoded (Spill's done). The queue is bounded
// and lossy: a full queue refuses the spill rather than stalling
// eviction, which is always safe — a refused block just stays
// archive-only.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"sommelier/internal/storage"
)

const (
	segMagic       = "SOMS"
	segFooterMagic = "SOMF"
	segTrailMagic  = "SOME"
	// 2: bodies may hold run-shaped columns (storage segRun); 3: footer
	// entries carry the block's coverage.
	segVersion = 3

	segHeaderLen  = 5  // magic + version
	blockHdrLen   = 16 // chunkID + bodyLen + CRC
	segTrailerLen = 12 // footer offset + trailer magic

	// spillQueueLen bounds the eviction→writer queue; overflow refuses
	// the spill (counted) instead of stalling the evicting query.
	spillQueueLen = 256
)

// DiskTierStats is a point-in-time snapshot of the tier counters,
// surfaced on GET /stats as "disk_cache".
type DiskTierStats struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Spills          int64 `json:"spills"`
	SpillRefused    int64 `json:"spill_refused"`
	Promotes        int64 `json:"promotes"`
	CorruptBlocks   int64 `json:"corrupt_blocks"`
	CorruptSegments int64 `json:"corrupt_segments"`
	BytesUsed       int64 `json:"bytes_used"`
	Blocks          int64 `json:"blocks"`
}

type blockMeta struct {
	off    int64
	length int64
	crc    uint32
	segs   []int64 // coverage
}

type spillReq struct {
	id   int64
	rel  *storage.Relation
	segs []int64 // rel's coverage
	done func()  // nil, or called once the tier no longer reads rel
}

// DiskTier is one table's segment file plus its in-memory block index.
// Safe for concurrent use: promotes read via ReadAt under an RLock'd
// index while the writer goroutine appends.
type DiskTier struct {
	path     string
	capacity int64 // ≤0: unbounded

	mu        sync.Mutex // guards index, writeOff, f (writes), flags
	index     map[int64]blockMeta
	inflight  map[int64]int // spills queued but not yet written, per chunk
	writeOff  int64
	f         *os.File
	accepting bool // false once Close begins: new spills are refused
	closed    bool

	queue   chan spillReq
	pending sync.WaitGroup
	// wbuf is the writer goroutine's block buffer, reused across spills.
	wbuf []byte

	hits, misses, spills, spillRefused   atomic.Int64
	promotes, corruptBlocks, corruptSegs atomic.Int64
}

// OpenDiskTier opens (or creates) the segment file for table in dir.
// An existing file is fully verified — header, trailer, footer CRC and
// every block CRC — and quarantined to <file>.corrupt on any failure,
// so a hostile or half-written segment can never serve data. capBytes
// bounds the file size (≤0 = unbounded); blocks that would exceed it
// are refused.
func OpenDiskTier(dir, table string, capBytes int64) (*DiskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dt := &DiskTier{
		path:      filepath.Join(dir, table+".seg"),
		capacity:  capBytes,
		index:     map[int64]blockMeta{},
		inflight:  map[int64]int{},
		queue:     make(chan spillReq, spillQueueLen),
		accepting: true,
	}
	if err := dt.openFile(); err != nil {
		return nil, err
	}
	go dt.writer()
	return dt, nil
}

// openFile validates any existing segment and leaves dt.f positioned
// for appends (the footer region, if any, will be overwritten and
// rewritten at Close).
func (dt *DiskTier) openFile() error {
	if st, err := os.Stat(dt.path); err == nil && st.Size() > 0 {
		index, dataEnd, verr := verifySegment(dt.path)
		if verr != nil {
			dt.corruptSegs.Add(1)
			if err := os.Rename(dt.path, dt.path+".corrupt"); err != nil {
				return fmt.Errorf("cache: quarantining %s: %w", dt.path, err)
			}
		} else {
			live := int64(0)
			for _, bm := range index {
				live += blockHdrLen + bm.length
			}
			// Dead bytes — superseded blocks' — are reclaimed once they
			// make up a quarter of the blocks region.
			if dead := dataEnd - segHeaderLen - live; dead > 0 && 4*dead >= dataEnd-segHeaderLen {
				return dt.compact(index)
			}
			f, err := os.OpenFile(dt.path, os.O_RDWR, 0o644)
			if err != nil {
				return err
			}
			if err := f.Truncate(dataEnd); err != nil {
				f.Close()
				return err
			}
			dt.f, dt.index, dt.writeOff = f, index, dataEnd
			return nil
		}
	}
	f, err := os.OpenFile(dt.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := append([]byte(segMagic), segVersion)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return err
	}
	dt.f, dt.writeOff = f, segHeaderLen
	return nil
}

// compact rewrites the verified segment without its dead bytes: the
// blocks index names, in file order, each under a header rebuilt from
// its entry. The copy is renamed over the segment only once complete,
// so a failure leaves the old file, which verified.
func (dt *DiskTier) compact(index map[int64]blockMeta) error {
	src, err := os.Open(dt.path)
	if err != nil {
		return err
	}
	defer src.Close()
	tmp := dt.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.WriteAt(append([]byte(segMagic), segVersion), 0); err != nil {
		return fail(err)
	}
	off := int64(segHeaderLen)
	moved := make(map[int64]blockMeta, len(index))
	var blk []byte
	for _, id := range slices.SortedFunc(maps.Keys(index), func(a, b int64) int { return cmp.Compare(index[a].off, index[b].off) }) {
		bm := index[id]
		blk = slices.Grow(blk[:0], blockHdrLen+int(bm.length))[:blockHdrLen+bm.length]
		binary.LittleEndian.PutUint64(blk[0:], uint64(id))
		binary.LittleEndian.PutUint32(blk[8:], uint32(bm.length))
		binary.LittleEndian.PutUint32(blk[12:], bm.crc)
		if _, err := src.ReadAt(blk[blockHdrLen:], bm.off); err != nil {
			return fail(err)
		}
		if _, err := f.WriteAt(blk, off); err != nil {
			return fail(err)
		}
		bm.off = off + blockHdrLen
		moved[id] = bm
		off += int64(len(blk))
	}
	if err := os.Rename(tmp, dt.path); err != nil {
		return fail(err)
	}
	dt.f, dt.index, dt.writeOff = f, moved, off
	return nil
}

// verifySegment reads a segment end to end: trailer magic, footer CRC,
// then every block body against its indexed CRC. It returns the block
// index and the end of the block region (= footer offset).
func verifySegment(path string) (map[int64]blockMeta, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	if size < segHeaderLen+segTrailerLen {
		return nil, 0, fmt.Errorf("segment too short (%d bytes)", size)
	}
	hdr := make([]byte, segHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, 0, err
	}
	if string(hdr[:4]) != segMagic || hdr[4] != segVersion {
		return nil, 0, fmt.Errorf("bad segment header")
	}
	trail := make([]byte, segTrailerLen)
	if _, err := f.ReadAt(trail, size-segTrailerLen); err != nil {
		return nil, 0, err
	}
	if string(trail[8:]) != segTrailMagic {
		return nil, 0, fmt.Errorf("missing footer (no trailer magic)")
	}
	footOff := int64(binary.LittleEndian.Uint64(trail[:8]))
	if footOff < segHeaderLen || footOff > size-segTrailerLen {
		return nil, 0, fmt.Errorf("footer offset out of range")
	}
	foot := make([]byte, size-segTrailerLen-footOff)
	if _, err := f.ReadAt(foot, footOff); err != nil {
		return nil, 0, err
	}
	if len(foot) < len(segFooterMagic)+4 || string(foot[:4]) != segFooterMagic {
		return nil, 0, fmt.Errorf("bad footer magic")
	}
	payload, crcBytes := foot[:len(foot)-4], foot[len(foot)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, 0, fmt.Errorf("footer CRC mismatch")
	}
	// Parse footer entries.
	rd := payload[4:]
	n, sz := binary.Uvarint(rd)
	// An entry takes at least 8 bytes: a count past that is garbage, and
	// would size the index map.
	if sz <= 0 || n > uint64(len(rd)) {
		return nil, 0, fmt.Errorf("bad footer count")
	}
	rd = rd[sz:]
	index := make(map[int64]blockMeta, n)
	for i := uint64(0); i < n; i++ {
		id, s1 := binary.Varint(rd)
		if s1 <= 0 {
			return nil, 0, fmt.Errorf("bad footer entry")
		}
		rd = rd[s1:]
		off, s2 := binary.Uvarint(rd)
		if s2 <= 0 {
			return nil, 0, fmt.Errorf("bad footer entry")
		}
		rd = rd[s2:]
		length, s3 := binary.Uvarint(rd)
		if s3 <= 0 {
			return nil, 0, fmt.Errorf("bad footer entry")
		}
		rd = rd[s3:]
		if len(rd) < 4 {
			return nil, 0, fmt.Errorf("bad footer entry")
		}
		crc := binary.LittleEndian.Uint32(rd)
		rd = rd[4:]
		// Bounded in uint64 before the conversion: a CRC-valid footer can
		// still carry lengths that go negative as int64.
		if off < segHeaderLen || length > uint64(footOff) || off > uint64(footOff)-length {
			return nil, 0, fmt.Errorf("block beyond footer")
		}
		nsegs, s4 := binary.Uvarint(rd)
		if s4 <= 0 || nsegs > uint64(len(rd)) {
			return nil, 0, fmt.Errorf("bad footer entry")
		}
		rd = rd[s4:]
		var segs []int64
		if nsegs > 0 {
			segs = make([]int64, nsegs-1)
			for j := range segs {
				v, s5 := binary.Varint(rd)
				if s5 <= 0 || j > 0 && v <= segs[j-1] {
					return nil, 0, fmt.Errorf("bad footer coverage")
				}
				segs[j], rd = v, rd[s5:]
			}
		}
		index[id] = blockMeta{off: int64(off), length: int64(length), crc: crc, segs: segs}
	}
	if len(rd) != 0 {
		return nil, 0, fmt.Errorf("trailing bytes in footer")
	}
	// Verify every block body: a flipped byte anywhere is caught here,
	// before the tier serves a single promote.
	body := make([]byte, 0)
	for id, bm := range index {
		if int64(cap(body)) < bm.length {
			body = make([]byte, bm.length)
		}
		body = body[:bm.length]
		if _, err := f.ReadAt(body, bm.off); err != nil {
			return nil, 0, fmt.Errorf("block %d: %w", id, err)
		}
		if crc32.ChecksumIEEE(body) != bm.crc {
			return nil, 0, fmt.Errorf("block %d: body CRC mismatch", id)
		}
	}
	return index, footOff, nil
}

// Contains reports whether a block for chunkID is on disk (or queued).
func (dt *DiskTier) Contains(chunkID int64) bool {
	if dt == nil {
		return false
	}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	_, ok := dt.index[chunkID]
	return ok || dt.inflight[chunkID] > 0
}

// Spill enqueues a chunk relation holding the segments segs covers for
// the background writer. It never blocks and never does I/O, so an
// eviction costs the evicting query nothing. The relation must be
// immutable; done (if non-nil) is called exactly once, as soon as the
// tier no longer reads it — when the writer has encoded it, or at once
// when the spill is refused or redundant — so the owner can reuse its
// memory.
func (dt *DiskTier) Spill(chunkID int64, rel *storage.Relation, segs []int64, done func()) {
	dt.enqueue(spillReq{id: chunkID, rel: rel, segs: segs, done: done}, false)
}

// SpillSync is the lossless variant of Spill — segs, when given, is
// the relation's coverage; none: the whole chunk. It blocks until the
// block is queued (never dropping it on a full queue) and is meant for
// the Close-time flush of the RAM-resident working set, where losing a
// block means the next start pays the archive for hot data. Eviction
// uses Spill.
func (dt *DiskTier) SpillSync(chunkID int64, rel *storage.Relation, segs ...int64) {
	dt.enqueue(spillReq{id: chunkID, rel: rel, segs: segs}, true)
}

// enqueue queues req for the writer — waiting for room when wait is
// set, refusing it on a full queue otherwise — unless the tier is
// closing or already holds a block covering it.
func (dt *DiskTier) enqueue(req spillReq, wait bool) {
	if dt == nil || req.rel == nil {
		req.release()
		return
	}
	dt.mu.Lock()
	held, spilled := dt.index[req.id]
	if !dt.accepting || spilled && Covers(held.segs, req.segs) {
		dt.mu.Unlock()
		req.release()
		return
	}
	dt.inflight[req.id]++
	dt.pending.Add(1)
	dt.mu.Unlock()
	if wait {
		dt.queue <- req
		return
	}
	select {
	case dt.queue <- req:
	default:
		dt.unqueue(req.id)
		dt.spillRefused.Add(1)
		req.release()
	}
}

func (req spillReq) release() {
	if req.done != nil {
		req.done()
	}
}

func (dt *DiskTier) unqueue(chunkID int64) {
	dt.mu.Lock()
	if dt.inflight[chunkID]--; dt.inflight[chunkID] == 0 {
		delete(dt.inflight, chunkID)
	}
	dt.mu.Unlock()
	dt.pending.Done()
}

// writer is the single goroutine that encodes and appends blocks.
func (dt *DiskTier) writer() {
	for req := range dt.queue {
		dt.writeBlock(req)
		dt.unqueue(req.id)
	}
}

// writeBlock encodes req's relation straight after a reserved block
// header in the writer's reused buffer, then fills the header in and
// appends header and body with one write — unless the chunk's block
// (only this goroutine adds one) already covers as much: a spill
// supersedes a block only by covering strictly more, and one covering
// other segments is refused.
func (dt *DiskTier) writeBlock(req spillReq) {
	dt.mu.Lock()
	held, spilled := dt.index[req.id]
	dt.mu.Unlock()
	if spilled && (Covers(held.segs, req.segs) || !Covers(req.segs, held.segs)) {
		if !Covers(held.segs, req.segs) {
			dt.spillRefused.Add(1)
		}
		req.release()
		return
	}
	var hdr [blockHdrLen]byte
	blk, err := storage.EncodeRelation(append(dt.wbuf[:0], hdr[:]...), req.rel)
	req.release()
	if err != nil {
		dt.spillRefused.Add(1)
		return
	}
	dt.wbuf = blk
	body := blk[blockHdrLen:]
	crc := crc32.ChecksumIEEE(body)
	binary.LittleEndian.PutUint64(blk[0:], uint64(req.id))
	binary.LittleEndian.PutUint32(blk[8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(blk[12:], crc)

	dt.mu.Lock()
	defer dt.mu.Unlock()
	if dt.closed {
		return
	}
	if dt.capacity > 0 && dt.writeOff+int64(len(blk))+segTrailerLen > dt.capacity {
		dt.spillRefused.Add(1)
		return
	}
	if _, err := dt.f.WriteAt(blk, dt.writeOff); err != nil {
		dt.spillRefused.Add(1)
		return
	}
	dt.index[req.id] = blockMeta{off: dt.writeOff + blockHdrLen, length: int64(len(body)), crc: crc, segs: req.segs}
	dt.writeOff += int64(len(blk))
	dt.spills.Add(1)
}

// Promote reads, verifies and decodes a whole chunk's block back into
// fresh memory: PromoteInto of every segment, without a ChunkMem.
func (dt *DiskTier) Promote(chunkID int64) *storage.Relation {
	rel, _ := dt.PromoteInto(chunkID, nil, nil)
	return rel
}

// PromoteInto reads, verifies and decodes the chunk's block back into a
// relation holding at least the segments segs covers, and returns it
// with the block's coverage. The body is read into mem's scratch and
// the chunk decoded into an arena taken from it
// (storage.DecodeRelationInto); a nil mem allocates. A miss returns
// nil — with the block's coverage when there is a block, but not one
// covering segs, so the caller can load the union. A CRC or decode
// failure drops the block from the index and reports a miss — the
// caller falls through to the archive loader, so a rotten block
// degrades to a cache miss, never to wrong data.
func (dt *DiskTier) PromoteInto(chunkID int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64) {
	if dt == nil {
		return nil, nil
	}
	dt.mu.Lock()
	bm, ok := dt.index[chunkID]
	f, closed := dt.f, dt.closed
	dt.mu.Unlock()
	if !ok || closed {
		dt.misses.Add(1)
		return nil, nil
	}
	if !Covers(bm.segs, segs) {
		dt.misses.Add(1)
		return nil, bm.segs
	}
	body := mem.Bytes(int(bm.length))
	if _, err := f.ReadAt(body, bm.off); err != nil {
		// A read error (e.g. file closed under a racing shutdown) is a
		// plain miss; only checksum/decode failures mark corruption.
		dt.misses.Add(1)
		return nil, nil
	}
	if crc32.ChecksumIEEE(body) != bm.crc {
		dt.dropBlock(chunkID)
		return nil, nil
	}
	rel, err := storage.DecodeRelationInto(body, mem)
	if err != nil {
		dt.dropBlock(chunkID)
		return nil, nil
	}
	dt.hits.Add(1)
	dt.promotes.Add(1)
	return rel, bm.segs
}

func (dt *DiskTier) dropBlock(chunkID int64) {
	dt.corruptBlocks.Add(1)
	dt.misses.Add(1)
	dt.mu.Lock()
	delete(dt.index, chunkID)
	dt.mu.Unlock()
}

// WaitIdle blocks until every queued spill has been written (or
// refused). Tests use it to make the asynchronous spill deterministic.
func (dt *DiskTier) WaitIdle() {
	if dt == nil {
		return
	}
	dt.pending.Wait()
}

// Stats snapshots the tier counters.
func (dt *DiskTier) Stats() DiskTierStats {
	if dt == nil {
		return DiskTierStats{}
	}
	dt.mu.Lock()
	bytesUsed, blocks := dt.writeOff, int64(len(dt.index))
	dt.mu.Unlock()
	return DiskTierStats{
		Hits:            dt.hits.Load(),
		Misses:          dt.misses.Load(),
		Spills:          dt.spills.Load(),
		SpillRefused:    dt.spillRefused.Load(),
		Promotes:        dt.promotes.Load(),
		CorruptBlocks:   dt.corruptBlocks.Load(),
		CorruptSegments: dt.corruptSegs.Load(),
		BytesUsed:       bytesUsed,
		Blocks:          blocks,
	}
}

// Close drains the spill queue, writes the footer index and trailer,
// syncs and closes the file. Only a segment closed this way survives
// the next Open's verification — an unclean shutdown falls back to a
// cold start, never to corrupt reads.
func (dt *DiskTier) Close() error {
	if dt == nil {
		return nil
	}
	dt.mu.Lock()
	if dt.closed {
		dt.mu.Unlock()
		return nil
	}
	// Stop accepting first, then drain: every spill enqueued before
	// this point still lands in the footer.
	dt.accepting = false
	dt.mu.Unlock()
	dt.pending.Wait()
	dt.mu.Lock()
	dt.closed = true
	close(dt.queue)

	var scratch [binary.MaxVarintLen64]byte
	foot := []byte(segFooterMagic)
	n := binary.PutUvarint(scratch[:], uint64(len(dt.index)))
	foot = append(foot, scratch[:n]...)
	for id, bm := range dt.index {
		n = binary.PutVarint(scratch[:], id)
		foot = append(foot, scratch[:n]...)
		n = binary.PutUvarint(scratch[:], uint64(bm.off))
		foot = append(foot, scratch[:n]...)
		n = binary.PutUvarint(scratch[:], uint64(bm.length))
		foot = append(foot, scratch[:n]...)
		var crcb [4]byte
		binary.LittleEndian.PutUint32(crcb[:], bm.crc)
		foot = append(foot, crcb[:]...)
		n = 0
		if bm.segs != nil {
			n = len(bm.segs) + 1
		}
		foot = binary.AppendUvarint(foot, uint64(n))
		for _, seg := range bm.segs {
			foot = binary.AppendVarint(foot, seg)
		}
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(foot))
	foot = append(foot, crcb[:]...)
	var trail [segTrailerLen]byte
	binary.LittleEndian.PutUint64(trail[:8], uint64(dt.writeOff))
	copy(trail[8:], segTrailMagic)
	foot = append(foot, trail[:]...)

	f, off := dt.f, dt.writeOff
	dt.mu.Unlock()
	if _, err := f.WriteAt(foot, off); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
