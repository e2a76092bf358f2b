package cache

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenDiskTier: a segment file is outside bytes once the process
// restarts. Whatever they are, OpenDiskTier does not panic: it sets the
// file aside, or it indexes only blocks that lie in the file, match
// their CRC and carry a well-formed coverage — every one of which then
// promotes or is dropped as corrupt. Seeded with a real segment (a
// superseded block, a whole one, a partial one) and with footers that
// list a chunk twice or only its superseded block.
func FuzzOpenDiskTier(f *testing.F) {
	dir := f.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		f.Fatal(err)
	}
	covs := [][]int64{{2}, {1, 2}, nil, {0}}
	for i, id := range []int64{1, 1, 2, 3} {
		dt.SpillSync(id, tierRel(40+10*i, id), covs[i]...)
		dt.WaitIdle()
	}
	if err := dt.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "D.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	footOff := int64(binary.LittleEndian.Uint64(data[len(data)-segTrailerLen:]))
	type entry struct {
		id   int64
		meta blockMeta
	}
	var blocks []entry
	for off := int64(segHeaderLen); off < footOff; {
		hdr := data[off : off+blockHdrLen]
		n := int64(binary.LittleEndian.Uint32(hdr[8:]))
		blocks = append(blocks, entry{int64(binary.LittleEndian.Uint64(hdr)),
			blockMeta{off: off + blockHdrLen, length: n, crc: binary.LittleEndian.Uint32(hdr[12:]), segs: covs[len(blocks)]}})
		off += blockHdrLen + n
	}
	withFooter := func(es []entry) []byte {
		foot := binary.AppendUvarint([]byte(segFooterMagic), uint64(len(es)))
		for _, e := range es {
			foot = binary.AppendVarint(foot, e.id)
			foot = binary.AppendUvarint(foot, uint64(e.meta.off))
			foot = binary.AppendUvarint(foot, uint64(e.meta.length))
			foot = binary.LittleEndian.AppendUint32(foot, e.meta.crc)
			n := 0
			if e.meta.segs != nil {
				n = len(e.meta.segs) + 1
			}
			foot = binary.AppendUvarint(foot, uint64(n))
			for _, s := range e.meta.segs {
				foot = binary.AppendVarint(foot, s)
			}
		}
		foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
		foot = binary.LittleEndian.AppendUint64(foot, uint64(footOff))
		return append(append(data[:footOff:footOff], foot...), segTrailMagic...)
	}
	f.Add(withFooter(blocks))     // chunk 1 listed twice
	f.Add(withFooter(blocks[:1])) // only the superseded block

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "D.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		dt, err := OpenDiskTier(dir, "D", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer dt.Close()
		if _, err := os.Stat(path + ".corrupt"); err == nil {
			if s := dt.Stats(); s.Blocks != 0 {
				t.Fatalf("a set-aside segment left %d blocks indexed", s.Blocks)
			}
			return
		}
		// Open may have rewritten the file without its dead bytes: the
		// index refers to the file as it is now.
		data, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dt.mu.Lock()
		index := make(map[int64]blockMeta, len(dt.index))
		for id, bm := range dt.index {
			index[id] = bm
		}
		dt.mu.Unlock()
		for id, bm := range index {
			if bm.off < segHeaderLen || bm.length > int64(len(data))-bm.off ||
				crc32.ChecksumIEEE(data[bm.off:bm.off+bm.length]) != bm.crc {
				t.Fatalf("block %d indexed outside the file or against its CRC", id)
			}
			for i := 1; i < len(bm.segs); i++ {
				if bm.segs[i] <= bm.segs[i-1] {
					t.Fatalf("block %d coverage %v is not sorted and distinct", id, bm.segs)
				}
			}
			dt.PromoteInto(id, bm.segs, nil)
		}
	})
}
