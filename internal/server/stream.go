// The response path: every result reaches the client through one engine
// sink in one of three framings. NDJSON and SOMW flush each batch as the
// executor produces it: the flush is the backpressure point (the query's
// goroutine blocks in Push until the client's TCP window drains, which
// suspends the scan), and a client that disconnects fails the next
// flush, which cancels the query. Plain JSON is buffered and written
// with its status once the drain ends: a late failure keeps its 4xx/5xx.

package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/storage"
)

// Wire format names; "json" without "stream" is the plain JSON body.
const (
	// FormatNDJSON is the default: one JSON object per line — a
	// {"columns": [...]} header, {"rows": [[...], ...]} per batch, and
	// a {"row_count", "stats"} footer (or {"error"} after a mid-stream
	// failure, since the 200 status is already on the wire).
	FormatNDJSON = "json"
	// FormatColumnar is the compact binary format of wire.go.
	FormatColumnar = "columnar"
)

// wireFormat frames a result for one wire format. Every method appends
// to the sink's buffer, which a streaming sink writes and flushes once
// per batch and a buffered one once per response.
type wireFormat interface {
	contentType() string
	appendHeader(dst []byte, names []string, kinds []storage.Kind) ([]byte, error)
	// appendBatch appends one contiguous batch to r.buf.
	appendBatch(r *renderer, b *storage.Batch) error
	appendFooter(dst []byte, f resultFooter) ([]byte, error)
	// appendError appends the in-band failure record: the 200 status is
	// already on the wire when it is needed.
	appendError(dst []byte, msg string) []byte
}

// runQuery executes one request on the handler goroutine and settles
// the outcome counters, returning the query error (nil on success) so
// the admission ticket can be released with the right dropped/served
// classification.
func (s *Server) runQuery(ctx context.Context, w http.ResponseWriter, req QueryRequest, timeout time.Duration, capped bool) error {
	var format wireFormat = jsonFormat{}
	switch {
	case req.Format == FormatColumnar:
		format = somwFormat{}
	case req.Stream:
		format = ndjsonFormat{}
	}
	sink := newStreamSink(w, format)
	defer putRenderer(sink.r)
	t0 := time.Now()
	res, err := s.db.QueryStream(ctx, req.SQL, sink, req.Params...)
	if err != nil {
		s.failed.Add(1)
		if sink.committed {
			// The 200 is on the wire: report the error in band.
			s.noteError(err)
			sink.fail(err)
		} else {
			s.writeError(w, err)
		}
		return err
	}
	s.completed.Add(1)
	if len(res.Warnings) > 0 {
		s.degraded.Add(1)
	}
	if err := sink.finish(toStats(res, time.Since(t0), timeout, capped), res.Warnings); err != nil && !sink.committed {
		s.writeError(w, err)
	}
	return nil
}

// streamSink is the engine sink of a response in any format. The status
// goes out with the first write, so a failure before it keeps the plain
// JSON error path, and a zero-row result still carries its column list.
type streamSink struct {
	hw     http.ResponseWriter
	fl     http.Flusher
	format wireFormat
	r      *renderer
	names  []string
	kinds  []storage.Kind
	// buffered holds the whole body until finish (plain JSON). begun
	// marks the header rendered; committed, the 200 on the wire.
	buffered, begun, committed bool
	rows                       int
}

// newStreamSink draws the sink's renderer from the pool; the caller
// returns it with putRenderer once the response is finished.
func newStreamSink(w http.ResponseWriter, format wireFormat) *streamSink {
	s := &streamSink{hw: w, format: format, r: getRenderer()}
	_, s.buffered = format.(jsonFormat)
	s.fl, _ = w.(http.Flusher)
	return s
}

// SetSchema implements engine.SchemaSink.
func (s *streamSink) SetSchema(names []string, kinds []storage.Kind) {
	s.names, s.kinds = names, kinds
}

// Retains implements physical.RetainingSink: the drain charges a
// buffered body's batches to the query's memory ceiling.
func (s *streamSink) Retains() bool { return s.buffered }

// begin renders the format's header once.
func (s *streamSink) begin() error {
	if s.begun {
		return nil
	}
	s.begun = true
	var err error
	s.r.buf, err = s.format.appendHeader(s.r.buf, s.names, s.kinds)
	return err
}

// Push implements engine.StreamSink: one record per batch, flushed
// unless the body is buffered.
func (s *streamSink) Push(b *storage.Batch) error {
	flat := b.Materialize()
	if err := s.begin(); err != nil {
		return err
	}
	s.rows += flat.Len()
	if err := s.format.appendBatch(s.r, flat); err != nil || s.buffered {
		return err
	}
	return s.flush()
}

// flush writes the buffer, committing the 200 with the first write (a
// buffered body is written once, with its Content-Length).
func (s *streamSink) flush() error {
	if !s.committed {
		s.committed = true
		s.hw.Header().Set("Content-Type", s.format.contentType())
		if s.buffered {
			s.hw.Header().Set("Content-Length", strconv.Itoa(len(s.r.buf)))
		}
		s.hw.WriteHeader(http.StatusOK)
	}
	_, err := s.hw.Write(s.r.buf)
	s.r.buf = s.r.buf[:0]
	if err != nil {
		return err
	}
	if s.fl != nil {
		s.fl.Flush()
	}
	return nil
}

// finish renders the terminal footer and writes what is left of the
// body. It returns a render failure; a failed write is a client that
// left, with no one left to tell.
func (s *streamSink) finish(stats QueryStats, warnings []engine.Warning) error {
	if err := s.begin(); err != nil {
		return err
	}
	var err error
	if s.r.buf, err = s.format.appendFooter(s.r.buf, resultFooter{RowCount: s.rows, Stats: stats, Warnings: warnings}); err != nil {
		return err
	}
	_ = s.flush()
	return nil
}

// fail writes the terminal in-band error record of a committed stream.
func (s *streamSink) fail(err error) {
	s.r.buf = s.format.appendError(s.r.buf, err.Error())
	_ = s.flush()
}

// jsonFormat is the plain JSON body, QueryResponse's encoding: the
// columns, the rows array, then the footer's fields in the same object.
type jsonFormat struct{}

func (jsonFormat) contentType() string { return "application/json" }

func (jsonFormat) appendHeader(dst []byte, names []string, _ []storage.Kind) ([]byte, error) {
	dst, err := appendJSON(dst, columnsHeader{Columns: names})
	if err != nil {
		return dst, err
	}
	return append(dst[:len(dst)-1], `,"rows":[`...), nil // reopen the header object
}

// appendBatch continues the rows array, which ends in '[' after the
// header and in ']' after a row.
func (jsonFormat) appendBatch(r *renderer, b *storage.Batch) error {
	if b.Len() > 0 && r.buf[len(r.buf)-1] == ']' {
		r.buf = append(r.buf, ',')
	}
	return r.appendRows(b)
}

func (jsonFormat) appendFooter(dst []byte, f resultFooter) ([]byte, error) {
	dst = append(dst, ']')
	mark := len(dst)
	dst, err := appendJSON(dst, f)
	if err != nil {
		return dst, err
	}
	dst[mark] = ',' // the footer object's '{' continues the response object
	return append(dst, '\n'), nil
}

// appendError is never reached: a buffered body fails uncommitted.
func (jsonFormat) appendError(dst []byte, msg string) []byte { return dst }

// ndjsonFormat is newline-delimited JSON; see FormatNDJSON for the line
// shapes.
type ndjsonFormat struct{}

func (ndjsonFormat) contentType() string { return "application/x-ndjson" }

func (ndjsonFormat) appendHeader(dst []byte, names []string, _ []storage.Kind) ([]byte, error) {
	if names == nil {
		names = []string{}
	}
	dst, err := appendJSON(dst, columnsHeader{Columns: names})
	return append(dst, '\n'), err
}

func (ndjsonFormat) appendBatch(r *renderer, b *storage.Batch) error {
	r.buf = append(r.buf, `{"rows":[`...)
	if err := r.appendRows(b); err != nil {
		return err
	}
	r.buf = append(r.buf, "]}\n"...)
	return nil
}

func (ndjsonFormat) appendFooter(dst []byte, f resultFooter) ([]byte, error) {
	dst, err := appendJSON(dst, f)
	return append(dst, '\n'), err
}

func (ndjsonFormat) appendError(dst []byte, msg string) []byte {
	dst, _ = appendJSON(dst, errorResponse{Error: msg}) // a string field cannot fail to encode
	return append(dst, '\n')
}
