// Package mseed implements the chunked waveform file format used as the
// repository substrate. It plays the role of Mini-SEED and libmseed in
// the paper: each file is one semantic chunk holding a small block of
// given metadata (control headers) followed by one or more segments of
// highly compressed time-series samples.
//
// The format preserves the properties the paper's experiments depend on:
//
//   - metadata lives in fixed-size headers that can be extracted without
//     touching the sample payload (orders of magnitude cheaper),
//   - sample data is delta + zigzag-varint compressed ("Steim-like"), so
//     a loaded database is much larger than the files,
//   - decoding cost is proportional to the data volume of the chunk.
package mseed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// Magic identifies a waveform chunk file.
const Magic = "MSEL"

// Version is the current format version.
const Version = 1

// Encoding identifies the sample payload encoding.
type Encoding uint8

// Supported encodings. EncodingDeltaVarint is the "Steim-like"
// compressed default; EncodingRaw stores int32 samples verbatim and
// exists to measure the value of compression.
const (
	EncodingDeltaVarint Encoding = 10
	EncodingRaw         Encoding = 0
)

// FileHeader is the file-level given metadata: the "control header" of
// the chunk. It matches the F table of the warehouse schema.
type FileHeader struct {
	Network   string // e.g. "IV"
	Station   string // e.g. "FIAM"
	Location  string // e.g. "00"
	Channel   string // e.g. "HHZ"
	Quality   string // e.g. "D" (data of undetermined quality)
	Encoding  Encoding
	ByteOrder string // "BE" or "LE"; informational, payload is LE
}

// SegmentHeader is the segment-level given metadata, matching the S
// table: a contiguous run of equally spaced samples.
type SegmentHeader struct {
	ID          int32 // unique within the file
	StartTime   int64 // ns since epoch of the first sample
	SampleRate  float64
	SampleCount int32
	// payloadLen is the byte length of the encoded sample block;
	// it lets metadata readers skip payloads without decoding.
	payloadLen int32
	// crc is the Castagnoli CRC of the encoded payload.
	crc uint32
}

// Period returns the sample spacing.
func (h SegmentHeader) Period() time.Duration {
	return time.Duration(float64(time.Second) / h.SampleRate)
}

// PeriodNS returns the sample spacing in nanoseconds, unrounded: chunk
// access stamps sample i at StartTime + int64(float64(i)*PeriodNS()).
func (h SegmentHeader) PeriodNS() float64 { return float64(time.Second) / h.SampleRate }

// EndTime returns the timestamp just after the last sample.
func (h SegmentHeader) EndTime() int64 {
	return h.StartTime + int64(float64(h.SampleCount)*float64(time.Second)/h.SampleRate)
}

// bounded reports whether every sample's stamp lies in [StartTime,
// EndTime()) and EndTime does not overflow: the per-segment bound the
// planner infers metadata predicates and join bands from. A zero rate
// stamps every sample at a wrapped EndTime; a rate above 1 GHz can
// stamp the last sample at EndTime; a long enough span overflows it.
func (h SegmentHeader) bounded() bool {
	if !(h.SampleRate > 0) {
		return false
	}
	if h.SampleCount == 0 {
		return true
	}
	span := float64(h.SampleCount) * float64(time.Second) / h.SampleRate
	if !(span < 1<<63) || h.StartTime > math.MaxInt64-int64(span) {
		return false
	}
	last := float64(h.SampleCount-1) * h.PeriodNS()
	return last < span && int64(last) < int64(span)
}

// Segment is a segment header plus its decoded samples (sensor counts).
type Segment struct {
	Header  SegmentHeader
	Samples []int32
	// Skipped marks a segment a filtered read (ReadInto) did not
	// select: its header only, its Samples nil.
	Skipped bool
}

// File is a decoded chunk.
type File struct {
	Header   FileHeader
	Segments []Segment
}

// Partial reports whether a filtered read skipped any segment.
func (f *File) Partial() bool {
	for _, s := range f.Segments {
		if s.Skipped {
			return true
		}
	}
	return false
}

// SampleCount returns the total number of samples across segments.
func (f *File) SampleCount() int {
	n := 0
	for _, s := range f.Segments {
		n += len(s.Samples)
	}
	return n
}

const (
	maxStringLen = 255
)

func writeString(w *bufio.Writer, s string) error {
	if len(s) > maxStringLen {
		return fmt.Errorf("mseed: string %q too long", s)
	}
	if err := w.WriteByte(byte(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func writeU32(w *bufio.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU64(w *bufio.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// EncodeSamples compresses samples with the given encoding.
func EncodeSamples(enc Encoding, samples []int32) ([]byte, error) {
	switch enc {
	case EncodingDeltaVarint:
		buf := make([]byte, 0, len(samples)*2)
		var prev int32
		var tmp [binary.MaxVarintLen64]byte
		for _, s := range samples {
			d := int64(s) - int64(prev)
			n := binary.PutUvarint(tmp[:], zigzag(d))
			buf = append(buf, tmp[:n]...)
			prev = s
		}
		return buf, nil
	case EncodingRaw:
		buf := make([]byte, len(samples)*4)
		for i, s := range samples {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(s))
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("mseed: unknown encoding %d", enc)
	}
}

// DecodeSamples decompresses a sample payload.
func DecodeSamples(enc Encoding, payload []byte, count int) ([]int32, error) {
	out := make([]int32, count)
	if err := DecodeSamplesInto(enc, payload, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeSamplesInto decompresses a sample payload into out, which must
// hold exactly the segment header's sample count. It lets a chunk
// reader decode every segment into slices of one pre-sized arena
// instead of allocating per segment.
func DecodeSamplesInto(enc Encoding, payload []byte, out []int32) error {
	count := len(out)
	switch enc {
	case EncodingDeltaVarint:
		var prev int64
		pos := 0
		for i := 0; i < count; i++ {
			var u uint64
			if pos < len(payload) && payload[pos] < 0x80 {
				// Waveform deltas are small: nearly every one is a
				// single byte, its own value.
				u = uint64(payload[pos])
				pos++
			} else {
				var n int
				u, n = binary.Uvarint(payload[pos:])
				if n <= 0 {
					return fmt.Errorf("mseed: truncated sample payload at sample %d", i)
				}
				pos += n
			}
			prev += unzigzag(u)
			if prev > math.MaxInt32 || prev < math.MinInt32 {
				return fmt.Errorf("mseed: sample %d out of int32 range", i)
			}
			out[i] = int32(prev)
		}
		if pos != len(payload) {
			return fmt.Errorf("mseed: %d trailing bytes in sample payload", len(payload)-pos)
		}
		return nil
	case EncodingRaw:
		if len(payload) != count*4 {
			return fmt.Errorf("mseed: raw payload length %d, want %d", len(payload), count*4)
		}
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(payload[i*4:]))
		}
		return nil
	default:
		return fmt.Errorf("mseed: unknown encoding %d", enc)
	}
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

var crcTable = crc32.MakeTable(crc32.Castagnoli)
