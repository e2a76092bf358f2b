package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sommelier/internal/server"
)

// sample is one request as the client saw it.
type sample struct {
	q *query
	// latency runs from sending the request to the last body byte; ttfb
	// to the first body byte. Decoding and checking come after both.
	latency, ttfb time.Duration
	end           time.Time
	stats         server.QueryStats
	// err is non-nil for a refused, failed, undecodable or wrong answer.
	err error
}

// driver issues POST /query in a closed loop: each client sends its next
// request only after it has decoded and checked the previous reply.
type driver struct {
	base string
	hc   *http.Client
}

func newDriver(base string, clients int) *driver {
	return &driver{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

// do sends one query and verifies the reply against q.want. buf is the
// client's reusable body buffer.
func (d *driver) do(ctx context.Context, q *query, buf *bytes.Buffer) sample {
	s := sample{q: q}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/query", bytes.NewReader(q.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := d.hc.Do(req)
	if err != nil {
		s.err, s.end = err, time.Now()
		s.latency = s.end.Sub(t0)
		return s
	}
	buf.Reset()
	var first [1]byte
	if n, _ := io.ReadFull(resp.Body, first[:]); n == 1 {
		s.ttfb = time.Since(t0)
		buf.WriteByte(first[0])
	}
	_, err = buf.ReadFrom(resp.Body)
	s.end = time.Now()
	s.latency = s.end.Sub(t0)
	resp.Body.Close()
	switch {
	case err != nil:
		s.err = fmt.Errorf("read body: %w", err)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	default:
		a, err := decodeAnswer(q.format, buf.Bytes())
		switch {
		case err != nil:
			s.err = fmt.Errorf("decode %s reply: %w", q.format, err)
		case a.got != q.want:
			s.err = fmt.Errorf("wrong answer: got %d rows sum %x, want %d rows sum %x",
				a.got.rows, a.got.sum, q.want.rows, q.want.sum)
		}
		s.stats = a.stats
	}
	if s.err != nil {
		s.err = fmt.Errorf("%s %q: %w", q.class, q.sql, s.err)
	}
	return s
}

// run drives one goroutine per entry of next until each returns nil or
// ctx ends, and returns every sample in completion order per client.
func (d *driver) run(ctx context.Context, next []func() *query) []sample {
	var (
		wg  sync.WaitGroup
		out = make([][]sample, len(next))
	)
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				q := next[c]()
				if q == nil {
					return
				}
				out[c] = append(out[c], d.do(ctx, q, &buf))
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// runList runs each query once, dealt round-robin over the clients.
func (d *driver) runList(ctx context.Context, clients int, list []*query) []sample {
	next := make([]func() *query, clients)
	for c := range next {
		i := c
		next[c] = func() *query {
			if i >= len(list) {
				return nil
			}
			q := list[i]
			i += clients
			return q
		}
	}
	return d.run(ctx, next)
}

// runStreams advances every client's stream until the deadline, or for
// perClient requests each when the deadline is zero.
func (d *driver) runStreams(ctx context.Context, streams []*stream, deadline time.Time, perClient int) []sample {
	next := make([]func() *query, len(streams))
	for c, st := range streams {
		n := 0
		next[c] = func() *query {
			if deadline.IsZero() && n >= perClient || !deadline.IsZero() && !time.Now().Before(deadline) {
				return nil
			}
			n++
			return st.next()
		}
	}
	return d.run(ctx, next)
}

// firstError returns the first failed sample's error, if any.
func firstError(samples []sample) error {
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}
