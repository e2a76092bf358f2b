// Binary columnar wire format for streaming query results: the
// compact alternative to NDJSON when the client is a program, not a
// person. The stream is column-major per batch, so a client decoding
// into columnar buffers never transposes, and numeric data is varint-
// packed instead of ASCII.
//
// Layout (all integers little-endian; uvarint/varint per encoding/binary):
//
//	header   "SOMW" magic, 1 version byte,
//	         uvarint ncols, per column: uvarint name length + name bytes,
//	         1 kind byte (wireKind)
//	records  'B'  uvarint nrows, then per column, column-major:
//	              int64/time  zigzag varints
//	              float64     8-byte LE IEEE-754 bits
//	              bool        1 byte each
//	              string      uvarint length + bytes
//	         'F'  uvarint length + JSON footer {"row_count", "stats"};
//	              terminal on success
//	         'E'  uvarint length + error message; terminal on failure
//
// A well-formed stream is header, zero or more 'B' records, then
// exactly one 'F' or 'E'. A truncated stream (no terminal record)
// means the connection died mid-query.

package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"sommelier/internal/engine"
	"sommelier/internal/storage"
)

// wireMagic opens every columnar stream.
var wireMagic = [4]byte{'S', 'O', 'M', 'W'}

// wireVersion is bumped on any layout change.
const wireVersion = 1

// wireKind is the on-wire column type byte: an explicit mapping, so the
// format does not shift if the internal storage.Kind enum is reordered.
const (
	wireInt64 byte = iota
	wireFloat64
	wireBool
	wireString
	wireTime
)

func toWireKind(k storage.Kind) (byte, error) {
	switch k {
	case storage.KindInt64:
		return wireInt64, nil
	case storage.KindFloat64:
		return wireFloat64, nil
	case storage.KindBool:
		return wireBool, nil
	case storage.KindString:
		return wireString, nil
	case storage.KindTime:
		return wireTime, nil
	}
	return 0, fmt.Errorf("server: no wire encoding for column kind %v", k)
}

func fromWireKind(b byte) (storage.Kind, error) {
	switch b {
	case wireInt64:
		return storage.KindInt64, nil
	case wireFloat64:
		return storage.KindFloat64, nil
	case wireBool:
		return storage.KindBool, nil
	case wireString:
		return storage.KindString, nil
	case wireTime:
		return storage.KindTime, nil
	}
	return storage.KindInvalid, fmt.Errorf("server: unknown wire kind byte %d", b)
}

// somwFormat is the binary columnar format laid out at the top of this
// file.
type somwFormat struct{}

func (somwFormat) contentType() string { return "application/x-sommelier-columnar" }

func (somwFormat) appendHeader(dst []byte, names []string, kinds []storage.Kind) ([]byte, error) {
	dst = append(dst, wireMagic[:]...)
	dst = append(dst, wireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for i, n := range names {
		dst = appendWireString(dst, n)
		wk, err := toWireKind(kinds[i])
		if err != nil {
			return dst, err
		}
		dst = append(dst, wk)
	}
	return dst, nil
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBatch appends one 'B' record, column-major over the typed
// slices.
func (somwFormat) appendBatch(r *renderer, b *storage.Batch) error {
	dst := append(r.buf, 'B')
	dst = binary.AppendUvarint(dst, uint64(b.Len()))
	for _, c := range b.Cols {
		switch c := c.(type) {
		case *storage.Int64Column, *storage.TimeColumn:
			for _, v := range storage.Int64s(c) {
				dst = binary.AppendVarint(dst, v)
			}
		case *storage.Float64Column:
			for _, v := range storage.Float64s(c) {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		case *storage.BoolColumn:
			for _, v := range storage.Bools(c) {
				if v {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		case *storage.StringColumn:
			dict := c.Dict()
			for _, code := range c.Codes() {
				dst = appendWireString(dst, dict[code])
			}
		default:
			return fmt.Errorf("server: no wire encoding for %T", c)
		}
	}
	r.buf = dst
	return nil
}

// appendFooter appends the terminal 'F' record. Its payload is
// json.Marshal's, HTML escaping included: that is what version 1
// clients have always been sent.
func (somwFormat) appendFooter(dst []byte, f resultFooter) ([]byte, error) {
	payload, err := json.Marshal(f)
	if err != nil {
		return dst, err
	}
	dst = append(dst, 'F')
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...), nil
}

// appendError appends the terminal 'E' record.
func (somwFormat) appendError(dst []byte, msg string) []byte {
	return appendWireString(append(dst, 'E'), msg)
}

// ColumnarResult is a decoded columnar stream; see DecodeColumnar.
type ColumnarResult struct {
	Columns []string
	Kinds   []storage.Kind
	// Rows is the row-major transposition of the decoded batches; time
	// columns decode to their raw int64 epoch-nanosecond values.
	Rows [][]any
	// RowCount and Stats are the 'F' footer; zero when the stream ended
	// in an error record instead.
	RowCount int
	Stats    QueryStats
	// Warnings are the degraded-mode warnings from the 'F' footer, if any.
	Warnings []engine.Warning
	// Err is the 'E' record message, "" on success.
	Err string
}

// DecodeColumnar reads one complete columnar stream: the reference
// decoder, used by the tests and available to Go clients.
func DecodeColumnar(r io.Reader) (*ColumnarResult, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("server: columnar header: %w", err)
	}
	if magic != wireMagic {
		return nil, fmt.Errorf("server: bad columnar magic %q", magic[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("server: columnar version %d, want %d", ver, wireVersion)
	}
	ncols, err := readWireCount(br)
	if err != nil {
		return nil, err
	}
	out := &ColumnarResult{}
	for range ncols {
		name, err := readWireString(br)
		if err != nil {
			return nil, err
		}
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		k, err := fromWireKind(kb)
		if err != nil {
			return nil, err
		}
		out.Columns = append(out.Columns, name)
		out.Kinds = append(out.Kinds, k)
	}
	for {
		rec, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("server: columnar stream truncated: %w", err)
		}
		switch rec {
		case 'B':
			if err := decodeColumnarBatch(br, out); err != nil {
				return nil, err
			}
		case 'F':
			payload, err := readWireString(br)
			if err != nil {
				return nil, err
			}
			var f resultFooter
			if err := json.Unmarshal([]byte(payload), &f); err != nil {
				return nil, fmt.Errorf("server: columnar footer: %w", err)
			}
			out.RowCount, out.Stats, out.Warnings = f.RowCount, f.Stats, f.Warnings
			return out, nil
		case 'E':
			msg, err := readWireString(br)
			if err != nil {
				return nil, err
			}
			out.Err = msg
			return out, nil
		default:
			return nil, fmt.Errorf("server: unknown columnar record %q", rec)
		}
	}
}

// wireChunk caps what the decoder allocates ahead of the bytes backing
// it: a hostile count costs at most one chunk before the stream ends.
const wireChunk = storage.BatchSize

func decodeColumnarBatch(br *bufio.Reader, out *ColumnarResult) error {
	n, err := readWireCount(br)
	if err != nil {
		return err
	}
	if n > 0 && len(out.Kinds) == 0 {
		return fmt.Errorf("server: %d rows in a zero-column batch", n)
	}
	cols := make([][]any, len(out.Kinds))
	for ci, k := range out.Kinds {
		cols[ci] = make([]any, 0, min(n, wireChunk))
		for range n {
			v, err := readWireValue(br, k)
			if err != nil {
				return err
			}
			cols[ci] = append(cols[ci], v)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]any, len(cols))
		for ci := range cols {
			row[ci] = cols[ci][i]
		}
		out.Rows = append(out.Rows, row)
	}
	return nil
}

// readWireValue reads one cell of a column of kind k.
func readWireValue(br *bufio.Reader, k storage.Kind) (any, error) {
	switch k {
	case storage.KindInt64, storage.KindTime:
		return binary.ReadVarint(br)
	case storage.KindFloat64:
		p, err := br.Peek(8)
		if err != nil {
			return nil, err
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		_, err = br.Discard(8)
		return v, err
	case storage.KindBool:
		b, err := br.ReadByte()
		return b != 0, err
	case storage.KindString:
		return readWireString(br)
	}
	return nil, fmt.Errorf("server: cannot decode kind %v", k)
}

// readWireCount reads a column, row or byte count, refusing one past
// math.MaxInt32: no server writes it, and it need not fit an int.
func readWireCount(br *bufio.Reader) (int, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("server: columnar count %d out of range", n)
	}
	return int(n), nil
}

func readWireString(br *bufio.Reader) (string, error) {
	n, err := readWireCount(br)
	if err != nil {
		return "", err
	}
	buf := make([]byte, 0, min(n, wireChunk))
	for len(buf) < n {
		k := min(n-len(buf), wireChunk)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(br, buf[len(buf):len(buf)+k]); err != nil {
			return "", err
		}
		buf = buf[:len(buf)+k]
	}
	return string(buf), nil
}

// WireTime formats a columnar time value (epoch nanoseconds) with the
// function the JSON formats render time cells with, so clients of all
// three agree.
func WireTime(ns int64) string {
	var buf [len(timeLayout)]byte
	return string(appendWireTime(buf[:0], ns))
}
