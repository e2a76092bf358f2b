package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one query share its id;
// set-up and per-chunk spans carry query -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer started
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit.
// The traced pass is single-threaded, so there is no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now; end closes it.
func (t *tracer) begin(name string, parent, query int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Query: query, Name: name, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].EndNS = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].EndNS - t.spans[id].StartNS)
}

// child records a span whose duration the callee reported (a Result's
// compile and stage timings) rather than one the benchmark clocked. It
// is laid at offset into its parent, so children of one parent tile it
// in the order the engine ran them.
func (t *tracer) child(name string, parent int, offset, d time.Duration) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Query: p.Query, Name: name,
		StartNS: p.StartNS + int64(offset), EndNS: p.StartNS + int64(offset+d),
	})
}

// selfTimes groups, by span name, each span's duration minus the part
// of it that its child spans cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.StartNS
		for _, k := range iv {
			lo, hi := max(k[0], reach), min(k[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNS-s.StartNS-covered))
	}
	return out
}

// medianUS is the median of durations in microseconds.
func medianUS(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d) / float64(time.Microsecond)
	}
	return median(vals)
}
