// Streaming request path: instead of materializing the whole result
// and writing one JSON body, a streaming request's batches are encoded
// and flushed to the client as the executor produces them. The flush
// is the backpressure point — the worker goroutine running the query
// blocks inside Push until the client-side TCP window drains, which
// suspends the scan that physical.Drain pulls on the same goroutine,
// so a slow reader throttles it instead of growing a buffer. A
// client that disconnects mid-stream fails the next flush, which
// cancels the query the same way.

package server

import (
	"context"
	"net/http"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/storage"
)

// Wire formats of a streaming response.
const (
	// FormatNDJSON is the default: one JSON object per line — a
	// {"columns": [...]} header, {"rows": [[...], ...]} per batch, and
	// a {"row_count", "stats"} footer (or {"error"} after a mid-stream
	// failure, since the 200 status is already on the wire).
	FormatNDJSON = "json"
	// FormatColumnar is the compact binary format of wire.go.
	FormatColumnar = "columnar"
)

// wireFormat frames a result stream for one wire format. Every method
// appends to a buffer the sink writes and flushes once per batch.
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

// streamQuery executes one streaming request on the handler
// goroutine and settles the outcome counters, returning the query
// error (nil on success) so the admission ticket can be released with
// the right dropped/served classification.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, req QueryRequest, timeout time.Duration, capped bool) error {
	var format wireFormat = ndjsonFormat{}
	if req.Format == FormatColumnar {
		format = somwFormat{}
	}
	sink := newStreamSink(w, format)
	defer putRenderer(sink.r)
	t0 := time.Now()
	res, err := s.db.QueryStream(ctx, req.SQL, sink, req.Params...)
	if err != nil {
		s.failed.Add(1)
		if sink.begun {
			// The 200 is already on the wire: note the error's counters
			// and append the in-band error record.
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
	sink.finish(toStats(res, time.Since(t0), timeout, capped), res.Warnings)
	return nil
}

// streamSink is the engine sink of a streaming response in either
// format. The header goes out with the first output, so a failure
// before that keeps the plain JSON error path and a zero-row result
// still carries its column list. Each pushed batch is one Write and one
// Flush; the flush is the backpressure point.
type streamSink struct {
	hw     http.ResponseWriter
	fl     http.Flusher
	format wireFormat
	r      *renderer
	names  []string
	kinds  []storage.Kind
	// begun reports that response bytes are on the wire.
	begun bool
	rows  int
}

// newStreamSink draws the sink's renderer from the pool; the caller
// returns it with putRenderer once the response is finished.
func newStreamSink(w http.ResponseWriter, format wireFormat) *streamSink {
	s := &streamSink{hw: w, format: format, r: getRenderer()}
	s.fl, _ = w.(http.Flusher)
	return s
}

// SetSchema implements engine.SchemaSink.
func (s *streamSink) SetSchema(names []string, kinds []storage.Kind) {
	s.names, s.kinds = names, kinds
}

// begin commits the 200 status and buffers the format's header.
func (s *streamSink) begin() error {
	if s.begun {
		return nil
	}
	s.begun = true
	s.hw.Header().Set("Content-Type", s.format.contentType())
	s.hw.WriteHeader(http.StatusOK)
	var err error
	s.r.buf, err = s.format.appendHeader(s.r.buf, s.names, s.kinds)
	return err
}

// Push implements engine.StreamSink: one record per batch, flushed.
func (s *streamSink) Push(b *storage.Batch) error {
	flat := b.Materialize()
	if err := s.begin(); err != nil {
		return err
	}
	s.rows += flat.Len()
	if err := s.format.appendBatch(s.r, flat); err != nil {
		return err
	}
	return s.flush()
}

func (s *streamSink) flush() error {
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

// finish writes the terminal footer record.
func (s *streamSink) finish(stats QueryStats, warnings []engine.Warning) {
	if err := s.begin(); err != nil {
		return
	}
	var err error
	s.r.buf, err = s.format.appendFooter(s.r.buf, resultFooter{RowCount: s.rows, Stats: stats, Warnings: warnings})
	if err != nil {
		return
	}
	_ = s.flush() // the client is gone; there is no one left to tell
}

// fail writes the terminal in-band error record.
func (s *streamSink) fail(err error) {
	s.r.buf = s.format.appendError(s.r.buf, err.Error())
	_ = s.flush()
}

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
