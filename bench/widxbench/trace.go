package main

import (
	"time"

	"widx/internal/system"
)

// Span is one traced interval: a call into a layer's public functions, made
// from the benchmark's own code. Times are nanoseconds since the tracer
// started; Parent indexes the enclosing span (-1 for the root); Run ties
// the spans of one traced run together.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// Spans nest strictly (begin/end pairs on one goroutine), so sibling spans
// never overlap and a span's self time is its duration minus the summed
// durations of its children.
type tracer struct {
	epoch time.Time
	run   int
	spans []Span
	open  []int
}

func newTracer(run int) *tracer { return &tracer{epoch: time.Now(), run: run} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), Parent: parent, Run: t.run})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// packed adds a closed child of the innermost open span covering
// [start, start+d). Agent time is aggregated over a whole system.Run call —
// a span per grant would cost more than the grant — so the per-layer agent
// spans are laid end to end from the start of the Run span: their lengths
// are measured, their positions inside the parent are not.
func (t *tracer) packed(name string, start int64, d time.Duration) int64 {
	parent := t.open[len(t.open)-1]
	end := start + int64(d)
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Run: t.run})
	return end
}

// selfTimes returns each span name's summed self time in seconds, the root
// span's duration, and the coverage: the share of the root's duration that
// named layer spans (every span but the root) account for.
func selfTimes(spans []Span) (self map[string]float64, rootS, coverage float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]float64{}
	var layers int64
	for i, s := range spans {
		d := s.End - s.Start
		own := d - child[i]
		if own < 0 {
			own = 0
		}
		if s.Parent < 0 {
			rootS += float64(d) / 1e9
			continue
		}
		self[s.Name] += float64(own) / 1e9
		layers += own
	}
	if rootS > 0 {
		coverage = float64(layers) / 1e9 / rootS
	}
	return self, rootS, coverage
}

// timedAgent wraps a system.Agent and accumulates the host time spent
// inside its scheduler-facing methods, so a system.Run span can be split
// into the scheduler's own time and the time of each agent layer.
type timedAgent struct {
	system.Agent
	layer  string // "widx" or "cores"
	busy   time.Duration
	grants uint64
}

func (a *timedAgent) Settle() error {
	start := time.Now()
	err := a.Agent.Settle()
	a.busy += time.Since(start)
	return err
}

func (a *timedAgent) PendingMem() (uint64, bool) {
	start := time.Now()
	cycle, ok := a.Agent.PendingMem()
	a.busy += time.Since(start)
	return cycle, ok
}

func (a *timedAgent) GrantMem() error {
	start := time.Now()
	err := a.Agent.GrantMem()
	a.busy += time.Since(start)
	a.grants++
	return err
}
