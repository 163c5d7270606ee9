package main

import "time"

// span is one timed call into a layer. Spans of one operation share its
// OpID; Parent is the index of the span that was open when this one began
// (-1 for an operation's root).
type span struct {
	Name    string `json:"name"`
	OpID    string `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory. The replay is single-threaded, so the
// open spans form a stack and a new span's parent is the top of it; code
// the layers call back into (the durable-log adapter) can therefore open
// child spans without being handed a parent. A tracer that is off records
// nothing — the replay's spans-off half runs the same calls through it.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	opID  string
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// begin opens a span under the current one.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, OpID: t.opID, Parent: parent,
		StartNS: time.Since(t.t0).Nanoseconds()})
}

// end closes the current span; a non-empty name replaces the one it was
// opened with, for calls whose outcome (hit, miss, build…) names them.
func (t *tracer) end(name string) {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	if name != "" {
		t.spans[i].Name = name
	}
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. Children of one parent never overlap (the replay is
// single-threaded), so that part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// samples collects values per metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }
