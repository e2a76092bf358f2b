package mseed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"slices"
)

// ReadMetadata extracts the given metadata of a chunk — file header and
// segment headers — without decoding any sample payload. Payload blocks
// are skipped using the recorded lengths, so the cost is independent of
// the sample volume. This is the operation the Registrar runs over a
// whole repository.
func ReadMetadata(r io.Reader) (FileHeader, []SegmentHeader, error) {
	br := bufio.NewReader(r)
	hdr, nseg, err := readFileHeader(br)
	if err != nil {
		return FileHeader{}, nil, err
	}
	segs := make([]SegmentHeader, 0, min(nseg, 4096)) // capacity hint; corrupt counts must not pre-allocate
	for i := 0; i < nseg; i++ {
		sh, err := readSegmentHeader(br)
		if err != nil {
			return FileHeader{}, nil, fmt.Errorf("mseed: segment %d: %w", i, err)
		}
		if _, err := br.Discard(int(sh.payloadLen)); err != nil {
			return FileHeader{}, nil, fmt.Errorf("mseed: segment %d: truncated payload: %w", i, err)
		}
		segs = append(segs, sh)
	}
	return hdr, segs, nil
}

// Read fully decodes a chunk file: the chunk-access operation. Payload
// checksums are verified.
//
// The stream is buffered whole and decoded in two passes: the first
// walks only the segment headers (skipping payloads by their recorded
// lengths) to sum the chunk's sample count, the second decodes each
// payload into a slice of one pre-sized sample arena. Cold loads thus
// perform a constant number of allocations — the file buffer, the
// arena, the segment slice — instead of two per segment, and payloads
// are checksummed in place without ever being copied.
func Read(r io.Reader) (*File, error) { return ReadInto(r, new(Scratch), nil) }

// Scratch is memory chunk decodes reuse: the file buffer and the sample
// arena, each grown in place when too small. A decoded File's samples
// alias Samples, so it must be done with before the next decode.
type Scratch struct {
	Buf     []byte
	Samples []int32
}

// ReadInto is Read buffering the file in s and decoding into s the
// samples of the segments whose IDs segs holds (sorted; nil: every
// segment). The other segments keep their headers in the File but are
// Skipped: their payloads are checksummed, not decoded, so a file fails
// a filtered read whenever it fails a whole one on a checksum.
func ReadInto(r io.Reader, s *Scratch, segs []int64) (*File, error) {
	var err error
	if s.Buf, err = readAll(r, s.Buf); err != nil {
		return nil, err
	}
	return decode(s.Buf, s, segs)
}

// readAll reads r to its end into buf, growing it when too small. Given
// the size in-memory readers and files report, a buffer one byte longer
// (for the read reporting EOF) takes the stream in one read, not a
// dozen reads and as many copies.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	size := 0
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	if want := max(size+1, 512); cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+n]; err == io.EOF {
			return buf, nil
		} else if err != nil {
			return buf, err
		}
	}
}

// ReadBytes decodes a chunk already resident in memory. The returned
// segments' sample slices share one backing arena sized from the
// segment headers; retaining any one of them retains the whole chunk's
// samples (callers transform them into columns anyway).
func ReadBytes(data []byte) (*File, error) { return decode(data, new(Scratch), nil) }

// decode is ReadBytes decoding the samples of the segments segs selects
// (see ReadInto) into s.Samples.
func decode(data []byte, s *Scratch, segs []int64) (*File, error) {
	hdr, nseg, pos, err := parseFileHeader(data)
	if err != nil {
		return nil, err
	}
	// Every segment occupies at least a header's worth of bytes, so a
	// corrupt count cannot demand more header slots than the file holds.
	if nseg < 0 || nseg > (len(data)-pos)/segmentHeaderLen {
		return nil, fmt.Errorf("mseed: %d segments in %d bytes (corrupt chunk)", nseg, len(data))
	}
	selected := func(sh SegmentHeader) bool {
		_, ok := slices.BinarySearch(segs, int64(sh.ID))
		return segs == nil || ok
	}
	// Pass one: segment headers only, to size the sample arena.
	heads := make([]SegmentHeader, nseg)
	total := 0
	p := pos
	for i := 0; i < nseg; i++ {
		sh, n, err := parseSegmentHeader(data[p:])
		if err != nil {
			return nil, fmt.Errorf("mseed: segment %d: %w", i, err)
		}
		p += n
		if sh.payloadLen < 0 || sh.SampleCount < 0 {
			return nil, fmt.Errorf("mseed: segment %d: negative length (corrupt chunk)", i)
		}
		// Both encodings spend at least one payload byte per sample, so
		// a corrupt header cannot demand an arena larger than the file.
		if sh.SampleCount > sh.payloadLen {
			return nil, fmt.Errorf("mseed: segment %d: %d samples in %d payload bytes (corrupt chunk)",
				i, sh.SampleCount, sh.payloadLen)
		}
		if !sh.bounded() {
			return nil, fmt.Errorf("mseed: segment %d: %d samples at %v Hz from %d do not fit before their end time (corrupt chunk)",
				i, sh.SampleCount, sh.SampleRate, sh.StartTime)
		}
		if int(sh.payloadLen) > len(data)-p {
			return nil, fmt.Errorf("mseed: segment %d: truncated payload: %w", i, io.ErrUnexpectedEOF)
		}
		p += int(sh.payloadLen)
		heads[i] = sh
		if selected(sh) {
			total += int(sh.SampleCount)
		}
	}
	// Pass two: verify and decode each payload into its arena slice.
	if cap(s.Samples) < total {
		s.Samples = make([]int32, total)
	}
	arena := s.Samples
	f := &File{Header: hdr, Segments: make([]Segment, nseg)}
	p, off := pos, 0
	for i, sh := range heads {
		p += segmentHeaderLen
		payload := data[p : p+int(sh.payloadLen)]
		p += int(sh.payloadLen)
		if got := crc32.Checksum(payload, crcTable); got != sh.crc {
			return nil, fmt.Errorf("mseed: segment %d: checksum mismatch (corrupt chunk)", i)
		}
		if !selected(sh) {
			f.Segments[i] = Segment{Header: sh, Skipped: true}
			continue
		}
		out := arena[off : off+int(sh.SampleCount) : off+int(sh.SampleCount)]
		off += int(sh.SampleCount)
		if err := DecodeSamplesInto(hdr.Encoding, payload, out); err != nil {
			return nil, fmt.Errorf("mseed: segment %d: %w", i, err)
		}
		f.Segments[i] = Segment{Header: sh, Samples: out}
	}
	return f, nil
}

// segmentHeaderLen is the fixed on-disk size of a segment header.
const segmentHeaderLen = 4 + 8 + 8 + 4 + 4 + 4

// parseSegmentHeader decodes one segment header, returning its encoded
// length. It is the single decoder of the segment wire format: the
// streaming readSegmentHeader feeds it too.
func parseSegmentHeader(data []byte) (SegmentHeader, int, error) {
	if len(data) < segmentHeaderLen {
		return SegmentHeader{}, 0, io.ErrUnexpectedEOF
	}
	var sh SegmentHeader
	sh.ID = int32(binary.LittleEndian.Uint32(data))
	sh.StartTime = int64(binary.LittleEndian.Uint64(data[4:]))
	sh.SampleRate = float64(binary.LittleEndian.Uint64(data[12:])) / 1e6
	sh.SampleCount = int32(binary.LittleEndian.Uint32(data[20:]))
	sh.payloadLen = int32(binary.LittleEndian.Uint32(data[24:]))
	sh.crc = binary.LittleEndian.Uint32(data[28:])
	return sh, segmentHeaderLen, nil
}

// maxFileHeaderLen bounds the variable-width file header: magic,
// version, six length-prefixed strings, encoding, segment count.
const maxFileHeaderLen = len(Magic) + 1 + 6*(1+maxStringLen) + 1 + 4

// parseFileHeader decodes the file header at the start of data,
// returning the segment count and the header's encoded length. It is
// the single decoder of the file-header wire format: the streaming
// readFileHeader feeds it too.
func parseFileHeader(data []byte) (hdr FileHeader, nseg, n int, err error) {
	if len(data) < len(Magic) {
		return FileHeader{}, 0, 0, fmt.Errorf("mseed: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(Magic)]) != Magic {
		return FileHeader{}, 0, 0, fmt.Errorf("mseed: bad magic %q", data[:len(Magic)])
	}
	n = len(Magic)
	if n >= len(data) {
		return FileHeader{}, 0, 0, io.ErrUnexpectedEOF
	}
	if ver := data[n]; ver != Version {
		return FileHeader{}, 0, 0, fmt.Errorf("mseed: unsupported version %d", ver)
	}
	n++
	for _, dst := range []*string{&hdr.Network, &hdr.Station, &hdr.Location, &hdr.Channel, &hdr.Quality, &hdr.ByteOrder} {
		if n >= len(data) || n+1+int(data[n]) > len(data) {
			return FileHeader{}, 0, 0, fmt.Errorf("mseed: reading header strings: %w", io.ErrUnexpectedEOF)
		}
		*dst = string(data[n+1 : n+1+int(data[n])])
		n += 1 + int(data[n])
	}
	if n+1+4 > len(data) {
		return FileHeader{}, 0, 0, io.ErrUnexpectedEOF
	}
	hdr.Encoding = Encoding(data[n])
	nseg = int(binary.LittleEndian.Uint32(data[n+1:]))
	return hdr, nseg, n + 1 + 4, nil
}

// readFileHeader is parseFileHeader over a stream: the header is
// shorter than the reader's buffer, so it is parsed out of a Peek (a
// file ending before maxFileHeaderLen peeks short, which is fine as
// long as the header itself is whole) and then consumed.
func readFileHeader(br *bufio.Reader) (FileHeader, int, error) {
	buf, peekErr := br.Peek(maxFileHeaderLen)
	hdr, nseg, n, err := parseFileHeader(buf)
	if err != nil {
		if peekErr != nil && peekErr != io.EOF {
			err = peekErr // the stream failed; the header is not at fault
		}
		return FileHeader{}, 0, err
	}
	if _, err := br.Discard(n); err != nil {
		return FileHeader{}, 0, err
	}
	return hdr, nseg, nil
}

func readSegmentHeader(br *bufio.Reader) (SegmentHeader, error) {
	var buf [segmentHeaderLen]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return SegmentHeader{}, err
	}
	sh, _, err := parseSegmentHeader(buf[:])
	return sh, err
}

// ReadMetadataFile extracts metadata from the chunk at path.
func ReadMetadataFile(path string) (FileHeader, []SegmentHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return FileHeader{}, nil, err
	}
	defer f.Close()
	return ReadMetadata(f)
}

// ReadChunkFile fully decodes the chunk at path. The file is read in
// one exactly-sized allocation and decoded in place (ReadBytes).
func ReadChunkFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBytes(data)
}
