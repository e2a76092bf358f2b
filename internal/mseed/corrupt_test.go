package mseed

import (
	"bytes"
	"slices"
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
// panics. Seeded with the byte-flip corpus of the test above.
func FuzzReadBytes(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, benchFile(500)); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(data)
	for off := 0; off < len(data); off += 7 {
		c := append([]byte(nil), data...)
		c[off] ^= 0x80
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ReadBytes(data)
		if err != nil {
			return
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
