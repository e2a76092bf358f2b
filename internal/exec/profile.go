package exec

import (
	"time"

	"sommelier/internal/physical"
	"sommelier/internal/plan"
)

// Stage is one span of a query's profile, in execution order.
type Stage int

// The stages of one query. Their spans tile it: each starts where the
// previous one ended, and a stage the query skips is empty.
const (
	StageCompile  Stage = iota // parse, plan and optimize, or the plan-cache hit
	StageDMd                   // Algorithm 1: the derived metadata the query needs
	StageStage1                // the metadata branch Qf
	StageSelect                // chunk selection and sampling from Qf's result
	StageLoad                  // chunk acquisition: hits, archive loads, promotes
	StageStage2                // the remainder, into the result or the sink
	StageAssemble              // result assembly and the execution's cleanup
	NumStages
)

var stageNames = [NumStages]string{"compile", "dmd", "stage1", "select", "load", "stage2", "assemble"}

func (s Stage) String() string { return stageNames[s] }

// Profile is what one query did: its stage spans, which share their
// boundaries (one clock read each), and what each plan node's operator
// did in each stage it ran in. Every execution records one.
type Profile struct {
	clock time.Time
	ends  [NumStages]time.Duration
	next  Stage // first stage not yet ended
	ops   []nodeOp
}

// nodeOp is one plan node's profiled operator in one stage.
type nodeOp struct {
	node   plan.Node
	stage1 bool
	op     *physical.Profiled
}

// NewProfile starts a profile's clock: the start of its first stage.
func NewProfile() *Profile { return &Profile{clock: time.Now(), ops: make([]nodeOp, 0, 16)} }

// End ends stage s now and returns its length. It starts where the
// last ended stage ended; stages skipped since are empty.
func (p *Profile) End(s Stage) time.Duration {
	at, start := time.Since(p.clock), p.ends[max(p.next, 1)-1]
	for ; p.next < s; p.next++ {
		p.ends[p.next] = start
	}
	p.ends[s], p.next = at, s+1
	return at - start
}

// Span reports ended stage s as offsets from the profile's start.
func (p *Profile) Span(s Stage) (start, end time.Duration) {
	if s > 0 {
		start = p.ends[s-1]
	}
	return start, p.ends[s]
}

// add profiles op, the operator of plan node n in stage 1 or 2.
func (p *Profile) add(n plan.Node, stage1 bool, op physical.Operator) *physical.Profiled {
	w := physical.NewProfiled(op, p.clock)
	p.ops = append(p.ops, nodeOp{node: n, stage1: stage1, op: w})
	return w
}

// Op reports what node n's operator did in stage 1 (Qf) or stage 2;
// ok is false if it did not run then.
// A timed operator's self time is its time less that of the nearest
// timed operators beneath it in the same stage: the pipeline it drains.
func (p *Profile) Op(n plan.Node, stage1 bool) (st physical.OpStats, self time.Duration, ok bool) {
	st, ok = p.stats(n, stage1)
	return st, max(st.Time-p.inputTime(n, stage1), 0), ok
}

// inputTime sums the time of the nearest timed operators below n.
func (p *Profile) inputTime(n plan.Node, stage1 bool) (d time.Duration) {
	for _, c := range n.Children() {
		if st, _ := p.stats(c, stage1); st.Timed {
			d += st.Time
		} else {
			d += p.inputTime(c, stage1)
		}
	}
	return d
}

func (p *Profile) stats(n plan.Node, stage1 bool) (physical.OpStats, bool) {
	for _, o := range p.ops {
		if o.node == n && o.stage1 == stage1 {
			return o.op.Stats(), true
		}
	}
	return physical.OpStats{}, false
}
