// The render core: a result batch is typed column slices, so every wire
// format is produced by walking those slices and appending into one
// reused []byte — no boxed row slices, no reflection, no per-row
// allocation. JSON, NDJSON and SOMW are the sink's framings (stream.go)
// over the functions in this file. The JSON text is byte-for-byte what
// encoding/json with SetEscapeHTML(false) writes for the same values;
// render_test.go holds that differential.

package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"sommelier/internal/engine"
	"sommelier/internal/storage"
)

// renderer is the state of rendering one response: the output buffer
// and the per-batch scratch of appendRows.
type renderer struct {
	buf  []byte
	cols []colView
	// esc holds the current batch's escaped dictionary entries, quotes
	// included, end to end; a colView's escEnd indexes into it.
	esc    []byte
	escEnd []int32
}

// colView is one column of a batch resolved to its typed slice.
type colView struct {
	kind  storage.Kind
	i64   []int64 // KindInt64 and KindTime
	f64   []float64
	bools []bool
	codes []int32
	dict  []string
	// escEnd[c] .. escEnd[c+1] bounds dictionary entry c in
	// renderer.esc; nil when the dictionary is larger than the batch and
	// each row escapes its own string instead.
	escEnd []int32
}

// maxPooledBuf keeps a renderer that grew for one large buffered JSON
// body from pinning that buffer in the pool.
const maxPooledBuf = 4 << 20

var renderers = sync.Pool{New: func() any { return new(renderer) }}

func getRenderer() *renderer { return renderers.Get().(*renderer) }

func putRenderer(r *renderer) {
	if cap(r.buf) > maxPooledBuf {
		r.buf = nil
	}
	r.buf = r.buf[:0]
	renderers.Put(r)
}

// resultFooter is what follows the rows in every format: the tail of
// the JSON object, the last NDJSON line and the SOMW 'F' payload.
type resultFooter struct {
	RowCount int              `json:"row_count"`
	Stats    QueryStats       `json:"stats"`
	Warnings []engine.Warning `json:"warnings,omitempty"`
}

type columnsHeader struct {
	Columns []string `json:"columns"`
}

// appendWriter lets a json.Encoder append to a byte slice.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// appendJSON appends v as encoding/json renders it with HTML escaping
// off and without the Encoder's newline. It serves the per-response
// pieces (column names, footer, error lines); rows never pass here.
func appendJSON(dst []byte, v any) ([]byte, error) {
	w := appendWriter{dst}
	enc := json.NewEncoder(&w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return dst, err
	}
	return w.buf[:len(w.buf)-1], nil
}

// appendRows appends b's rows as comma-separated JSON arrays,
// `[c0,c1],[c0,c1]`, without enclosing brackets. b must be contiguous.
func (r *renderer) appendRows(b *storage.Batch) error {
	n := b.Len()
	r.cols, r.esc, r.escEnd = r.cols[:0], r.esc[:0], r.escEnd[:0]
	for _, c := range b.Cols {
		v := colView{kind: c.Kind()}
		switch c := c.(type) {
		case *storage.Int64Column, *storage.TimeColumn:
			v.i64 = storage.Int64s(c)
		case *storage.Float64Column:
			v.f64 = storage.Float64s(c)
		case *storage.BoolColumn:
			v.bools = storage.Bools(c)
		case *storage.StringColumn:
			v.codes, v.dict = c.Codes(), c.Dict()
			if len(v.dict) <= n {
				first := len(r.escEnd)
				r.escEnd = append(r.escEnd, int32(len(r.esc)))
				for _, s := range v.dict {
					r.esc = appendJSONString(r.esc, s)
					r.escEnd = append(r.escEnd, int32(len(r.esc)))
				}
				v.escEnd = r.escEnd[first:]
			}
		default:
			return fmt.Errorf("server: no wire encoding for %T", c)
		}
		r.cols = append(r.cols, v)
	}
	dst := r.buf
	for ri := 0; ri < n; ri++ {
		if ri > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for ci := range r.cols {
			if ci > 0 {
				dst = append(dst, ',')
			}
			switch c := &r.cols[ci]; c.kind {
			case storage.KindInt64:
				dst = strconv.AppendInt(dst, c.i64[ri], 10)
			case storage.KindTime:
				dst = append(dst, '"')
				dst = appendWireTime(dst, c.i64[ri])
				dst = append(dst, '"')
			case storage.KindFloat64:
				dst = appendFloat(dst, c.f64[ri])
			case storage.KindBool:
				dst = strconv.AppendBool(dst, c.bools[ri])
			case storage.KindString:
				code := c.codes[ri]
				if c.escEnd != nil {
					dst = append(dst, r.esc[c.escEnd[code]:c.escEnd[code+1]]...)
				} else {
					dst = appendJSONString(dst, c.dict[code])
				}
			}
		}
		dst = append(dst, ']')
	}
	r.buf = dst
	// The views alias batch memory the caller is about to recycle.
	clear(r.cols)
	return nil
}

// appendFloat appends f as encoding/json does: ES6 number formatting,
// with NaN and ±Inf — which JSON cannot carry (an AVG over zero rows is
// NaN) — as null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	// Below 2^53 every integer is its own shortest decimal, so integral
	// values (seismic samples are counts) skip the shortest-float search.
	if abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// timeLayout is how every format's clients see a time value;
// appendWireTime writes it without the time package.
const timeLayout = "2006-01-02T15:04:05.000"

// appendWireTime appends epoch nanoseconds as UTC in timeLayout. An
// int64 of nanoseconds spans the years 1677 to 2262, so the year always
// has four digits.
func appendWireTime(dst []byte, ns int64) []byte {
	sec := ns / 1e9
	nsec := ns % 1e9
	if nsec < 0 {
		sec, nsec = sec-1, nsec+1e9
	}
	days := sec / 86400
	rem := sec % 86400
	if rem < 0 {
		days, rem = days-1, rem+86400
	}
	// Civil date from a day count (Hinnant's days-to-civil; every
	// quantity is non-negative after the shift to 0000-03-01 because the
	// int64 range starts in 1677).
	z := uint64(days + 719468)
	era := z / 146097
	doe := z % 146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	month := mp + 3
	year := yoe + era*400
	if month > 12 {
		month -= 12
		year++
	}
	s, ms := uint64(rem), uint64(nsec)/1e6
	return append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-',
		byte('0'+month/10), byte('0'+month%10), '-',
		byte('0'+day/10), byte('0'+day%10), 'T',
		byte('0'+s/36000), byte('0'+s/3600%10), ':',
		byte('0'+s/600%6), byte('0'+s/60%10), ':',
		byte('0'+s/10%6), byte('0'+s%10), '.',
		byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10))
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string the way
// encoding/json does with HTML escaping off: control bytes, '"' and
// '\\' escaped, invalid UTF-8 replaced by the six bytes \ufffd, U+2028/U+2029 escaped,
// '<', '>' and '&' left alone.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
