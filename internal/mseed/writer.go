package mseed

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Write serializes a chunk file.
func Write(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := bw.WriteByte(Version); err != nil {
		return err
	}
	h := f.Header
	for _, s := range []string{h.Network, h.Station, h.Location, h.Channel, h.Quality, h.ByteOrder} {
		if err := writeString(bw, s); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(byte(h.Encoding)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(f.Segments))); err != nil {
		return err
	}
	for i := range f.Segments {
		if err := writeSegment(bw, h.Encoding, &f.Segments[i]); err != nil {
			return fmt.Errorf("mseed: segment %d: %w", i, err)
		}
	}
	return bw.Flush()
}

func writeSegment(bw *bufio.Writer, enc Encoding, s *Segment) error {
	if int(s.Header.SampleCount) != len(s.Samples) {
		return fmt.Errorf("sample count %d, got %d samples", s.Header.SampleCount, len(s.Samples))
	}
	if s.Header.SampleRate <= 0 {
		return fmt.Errorf("non-positive sample rate %v", s.Header.SampleRate)
	}
	// Refuse what a read would reject, at the rate as it reads back.
	back := s.Header
	back.SampleRate = float64(uint64(s.Header.SampleRate*1e6)) / 1e6
	if !back.bounded() {
		return fmt.Errorf("%d samples at %v Hz from %d do not fit before their end time",
			s.Header.SampleCount, s.Header.SampleRate, s.Header.StartTime)
	}
	payload, err := EncodeSamples(enc, s.Samples)
	if err != nil {
		return err
	}
	if err := writeU32(bw, uint32(s.Header.ID)); err != nil {
		return err
	}
	if err := writeU64(bw, uint64(s.Header.StartTime)); err != nil {
		return err
	}
	// Sample rate is stored in micro-hertz to stay integral.
	if err := writeU64(bw, uint64(s.Header.SampleRate*1e6)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(s.Header.SampleCount)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(payload))); err != nil {
		return err
	}
	if err := writeU32(bw, checksum(payload)); err != nil {
		return err
	}
	_, err = bw.Write(payload)
	return err
}

func checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}

// WriteFile writes a chunk file to path, creating parent-less paths as
// regular files.
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
