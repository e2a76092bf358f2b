// Streaming request path: instead of materializing the whole result
// and writing one JSON body, a streaming request's batches are encoded
// and flushed to the client as the executor produces them. The flush
// is the backpressure point — the worker goroutine running the query
// blocks inside Push until the client-side TCP window drains, which
// suspends the morsel cursor upstream (physical.Drain), so a
// slow reader throttles the scan instead of growing a buffer. A
// client that disconnects mid-stream fails the next flush, which
// cancels the query the same way.

package server

import (
	"context"
	"encoding/json"
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

// streamEncoder is what the streaming path needs from a wire format:
// an engine sink plus the server-side framing calls.
type streamEncoder interface {
	engine.SchemaSink
	// started reports whether response bytes are on the wire; before
	// that, errors can still use the ordinary JSON error envelope.
	started() bool
	rowCount() int
	finish(stats QueryStats, warnings []engine.Warning)
	fail(err error)
}

// streamQuery executes one streaming request on the handler
// goroutine and settles the outcome counters, returning the query
// error (nil on success) so the admission ticket can be released with
// the right dropped/served classification.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, req QueryRequest, timeout time.Duration, capped bool) error {
	var enc streamEncoder
	if req.Format == FormatColumnar {
		enc = newColumnarSink(w)
	} else {
		enc = newNDJSONSink(w)
	}
	t0 := time.Now()
	res, err := s.db.QueryStream(ctx, req.SQL, enc, req.Params...)
	if err != nil {
		s.failed.Add(1)
		if enc.started() {
			// The 200 is already on the wire: note the error's counters
			// and append the in-band error line.
			s.noteError(err)
			enc.fail(err)
		} else {
			s.writeError(w, err)
		}
		return err
	}
	s.completed.Add(1)
	if len(res.Warnings) > 0 {
		s.degraded.Add(1)
	}
	enc.finish(toStats(res, time.Since(t0), timeout, capped), res.Warnings)
	res.Release()
	return nil
}

// ndjsonSink encodes a query stream as newline-delimited JSON; see
// FormatNDJSON for the line shapes.
type ndjsonSink struct {
	hw    http.ResponseWriter
	fl    http.Flusher
	enc   *json.Encoder
	names []string
	begun bool
	rows  int
}

func newNDJSONSink(w http.ResponseWriter) *ndjsonSink {
	s := &ndjsonSink{hw: w}
	s.fl, _ = w.(http.Flusher)
	s.enc = json.NewEncoder(w)
	s.enc.SetEscapeHTML(false)
	return s
}

// SetSchema implements engine.SchemaSink.
func (s *ndjsonSink) SetSchema(names []string, kinds []storage.Kind) { s.names = names }

func (s *ndjsonSink) started() bool { return s.begun }
func (s *ndjsonSink) rowCount() int { return s.rows }

type ndjsonHeader struct {
	Columns []string `json:"columns"`
}

type ndjsonRows struct {
	Rows [][]any `json:"rows"`
}

type ndjsonFooter struct {
	RowCount int              `json:"row_count"`
	Stats    QueryStats       `json:"stats"`
	Warnings []engine.Warning `json:"warnings,omitempty"`
}

// begin commits the 200 status and writes the header line on first
// output, so pre-execution failures keep the plain JSON error path.
func (s *ndjsonSink) begin() error {
	if s.begun {
		return nil
	}
	s.begun = true
	s.hw.Header().Set("Content-Type", "application/x-ndjson")
	s.hw.WriteHeader(http.StatusOK)
	cols := s.names
	if cols == nil {
		cols = []string{}
	}
	return s.enc.Encode(ndjsonHeader{Columns: cols})
}

// Push implements engine.StreamSink: one rows line per batch, flushed.
func (s *ndjsonSink) Push(b *storage.Batch) error {
	flat := b.Materialize()
	defer storage.PutBatch(flat)
	if err := s.begin(); err != nil {
		return err
	}
	rows := make([][]any, flat.Len())
	for ri := 0; ri < flat.Len(); ri++ {
		row := make([]any, flat.Width())
		for ci := 0; ci < flat.Width(); ci++ {
			row[ci] = jsonValue(flat.Cols[ci], ri)
		}
		rows[ri] = row
	}
	s.rows += flat.Len()
	if err := s.enc.Encode(ndjsonRows{Rows: rows}); err != nil {
		return err
	}
	s.flush()
	return nil
}

func (s *ndjsonSink) flush() {
	if s.fl != nil {
		s.fl.Flush()
	}
}

func (s *ndjsonSink) finish(stats QueryStats, warnings []engine.Warning) {
	if err := s.begin(); err != nil {
		return
	}
	_ = s.enc.Encode(ndjsonFooter{RowCount: s.rows, Stats: stats, Warnings: warnings})
	s.flush()
}

func (s *ndjsonSink) fail(err error) {
	_ = s.enc.Encode(errorResponse{Error: err.Error()})
	s.flush()
}
