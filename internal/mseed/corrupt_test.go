package mseed

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestReadBytesCorruptionSafety flips every byte of a valid chunk, one
// at a time, and requires ReadBytes to either fail with an error or
// succeed — never panic and never balloon allocations from corrupt
// header counts. Chunk loads run inside server query goroutines, so a
// decoding panic on one rotten file would take down the whole process.
func TestReadBytesCorruptionSafety(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, benchFile(500)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBytes(append([]byte(nil), data...)); err != nil {
		t.Fatalf("clean chunk must parse: %v", err)
	}
	for off := 0; off < len(data); off++ {
		c := append([]byte(nil), data...)
		c[off] ^= 0x80
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with byte %d corrupted: %v", off, r)
				}
			}()
			ReadBytes(c)
		}()
	}
}

// FuzzReadBytes: chunk files come from an archive the process does not
// control. Whatever the bytes, ReadBytes fails with an error or returns
// a file that writes and reads back to the same segments — it never
// panics. And a read filtered by a segment mask is the full read's
// selected segments, headers and samples bit for bit, the others
// skipped; it fails whenever the full read fails a checksum. Seeded
// with the byte-flip corpus of the test above and a file of several
// segments under a few masks.
func FuzzReadBytes(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, benchFile(500)); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(data, uint32(1))
	for off := 0; off < len(data); off += 7 {
		c := append([]byte(nil), data...)
		c[off] ^= 0x80
		f.Add(c, uint32(off)|1)
	}
	buf.Reset()
	if err := Write(&buf, segmentedFile(5, 300)); err != nil {
		f.Fatal(err)
	}
	for _, mask := range []uint32{0, 1, 0b10110, 0b11111} {
		f.Add(buf.Bytes(), mask)
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint32) {
		segs := []int64{} // the segment IDs below 32 that mask sets
		for id := int64(0); id < 32; id++ {
			if mask>>id&1 != 0 {
				segs = append(segs, id)
			}
		}
		file, err := ReadBytes(data)
		part, perr := ReadInto(bytes.NewReader(data), new(Scratch), segs)
		if err != nil {
			if strings.Contains(err.Error(), "checksum mismatch") && perr == nil {
				t.Fatalf("the full read fails a checksum (%v), the filtered one does not", err)
			}
			return
		}
		if perr != nil {
			t.Fatalf("the full read succeeds, the filtered one fails: %v", perr)
		}
		for i, seg := range file.Segments {
			requireBounded(t, i, seg.Header)
		}
		if len(part.Segments) != len(file.Segments) {
			t.Fatalf("filtered read: %d segments, want %d", len(part.Segments), len(file.Segments))
		}
		for i, seg := range file.Segments {
			got := part.Segments[i]
			_, selected := slices.BinarySearch(segs, int64(seg.Header.ID))
			if got.Header != seg.Header || got.Skipped == selected {
				t.Fatalf("segment %d: header %+v skipped %v, want %+v selected %v", i, got.Header, got.Skipped, seg.Header, selected)
			}
			if selected && !slices.Equal(got.Samples, seg.Samples) || !selected && got.Samples != nil {
				t.Fatalf("segment %d: filtered samples differ from the full read", i)
			}
		}
		var out bytes.Buffer
		if err := Write(&out, file); err != nil {
			// Write refuses what ReadBytes tolerates: a zero sample
			// rate, an unknown encoding over zero samples.
			return
		}
		back, err := ReadBytes(out.Bytes())
		if err != nil {
			t.Fatalf("re-read of a written file: %v", err)
		}
		if len(back.Segments) != len(file.Segments) {
			t.Fatalf("%d segments, want %d", len(back.Segments), len(file.Segments))
		}
		for i, seg := range file.Segments {
			if !slices.Equal(back.Segments[i].Samples, seg.Samples) {
				t.Fatalf("segment %d samples differ after a round trip", i)
			}
		}
	})
}

// segmentedFile is a file of nseg segments of n samples each, segment i
// with ID i.
func segmentedFile(nseg, n int) *File {
	f := benchFile(nseg * n)
	all := f.Segments[0].Samples
	f.Segments = nil
	for i := 0; i < nseg; i++ {
		f.Segments = append(f.Segments, Segment{
			Header:  SegmentHeader{ID: int32(i), StartTime: int64(i) * 1e12, SampleRate: 20, SampleCount: int32(n)},
			Samples: all[i*n : (i+1)*n],
		})
	}
	return f
}

// requireBounded fails t unless every sample of h, stamped as chunk
// access stamps it, lies in [StartTime, EndTime()).
func requireBounded(t *testing.T, i int, h SegmentHeader) {
	t.Helper()
	end, period := h.EndTime(), h.PeriodNS()
	if end < h.StartTime {
		t.Fatalf("segment %d: end time %d before start time %d", i, end, h.StartTime)
	}
	for k := 0; k < int(h.SampleCount); k++ {
		if ts := h.StartTime + int64(float64(k)*period); ts < h.StartTime || ts >= end {
			t.Fatalf("segment %d (%+v): sample %d at %d outside [%d, %d)", i, h, k, ts, h.StartTime, end)
		}
	}
}

// TestUnboundedSegmentIsCorrupt: a segment header whose samples cannot
// all lie in [StartTime, EndTime()) fails the read as a corrupt chunk,
// since the planner prunes rows by that bound. The headers are patched
// into a valid three-sample file; its payload checksum still holds.
func TestUnboundedSegmentIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, benchFile(3)); err != nil {
		t.Fatal(err)
	}
	_, _, pos, err := parseFileHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		start    int64
		wireRate uint64 // micro-Hz
	}{
		"zero rate": {0, 0},
		// Samples 0.5 ns apart: sample 2 is stamped at 1 ns, EndTime is
		// int64(1.5 ns) = 1.
		"2 GHz": {0, 2e15},
		// Three samples at 1 µHz span 3e15 ns, from 1 s below MaxInt64:
		// EndTime overflows.
		"end overflows": {math.MaxInt64 - 1e9, 1},
	}
	for name, c := range cases {
		data := slices.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(data[pos+4:], uint64(c.start))
		binary.LittleEndian.PutUint64(data[pos+12:], c.wireRate)
		if _, err := ReadBytes(data); err == nil || !strings.Contains(err.Error(), "corrupt chunk") {
			t.Errorf("%s: read error %v, want a corrupt chunk", name, err)
		}
		hdr, segs, err := ReadMetadata(bytes.NewReader(data))
		if err != nil || len(segs) != 1 || hdr.Station != "FIAM" {
			t.Errorf("%s: metadata read: %v", name, err)
			continue
		}
		if err := Write(new(bytes.Buffer), &File{Header: hdr, Segments: []Segment{{Header: segs[0], Samples: []int32{1, 2, 3}}}}); err == nil {
			t.Errorf("%s: Write accepts a segment the reader rejects", name)
		}
	}
	// The same file with its own header reads.
	if _, err := ReadBytes(buf.Bytes()); err != nil {
		t.Fatalf("unpatched file: %v", err)
	}
}
