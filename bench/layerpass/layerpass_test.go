package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"factorlog/bench/work"
)

func TestSelfTimes(t *testing.T) {
	// root 0..100 with children 10..30 and 40..90; the second has a child
	// 50..60.
	spans := []span{
		{Name: "op", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 30},
		{Name: "b", Parent: 0, StartNS: 40, EndNS: 90},
		{Name: "c", Parent: 2, StartNS: 50, EndNS: 60},
	}
	want := []int64{30, 20, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerNestsAndRenames(t *testing.T) {
	tr := newTracer()
	tr.opID = "x"
	tr.begin("op")
	tr.begin("pipeline.mat")
	tr.begin("wal.append_sync")
	tr.end("")
	tr.end("pipeline.mat_build")
	tr.end("")
	if len(tr.stack) != 0 {
		t.Fatalf("stack not empty: %v", tr.stack)
	}
	if got := []string{tr.spans[0].Name, tr.spans[1].Name, tr.spans[2].Name}; got[1] != "pipeline.mat_build" || got[2] != "wal.append_sync" {
		t.Errorf("names %v", got)
	}
	if tr.spans[2].Parent != 1 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents %d %d %d", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	tr.on = false
	tr.begin("ignored")
	tr.end("")
	if len(tr.spans) != 3 {
		t.Error("a tracer that is off recorded a span")
	}
}

func TestNsPer(t *testing.T) {
	for name, want := range map[string]float64{
		"adorn.ms": 1e6, "parser.atom_us": 1e3, "resilience.acquire_ns": 1,
		"engine.eval_ms.tc_magic": 1e6, "pipeline.mat_hit_us": 1e3,
	} {
		if got := nsPer(name); got != want {
			t.Errorf("nsPer(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestReplayTraceIsWellFormed replays every workload at smoke size and
// checks the span trees: every span closed, children inside their parents,
// one root per operation, every operation checked against the oracle.
func TestReplayTraceIsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("replays four workloads")
	}
	for _, name := range work.Names {
		w, err := work.Generate(name, work.Smoke, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		in := work.LayerInput{Workload: name, Smoke: true, Blocks: 2}
		for c := range w.Ops {
			in.LatencyMS = append(in.LatencyMS, make([]float64, len(w.Ops[c])))
		}
		walDir := ""
		if w.Durable {
			walDir = filepath.Join(t.TempDir(), "wal")
		}
		tr := newTracer()
		st, err := newState(tr, w, walDir)
		if err != nil {
			t.Fatal(err)
		}
		p := &prober{st: st, tr: tr, counts: samples{}, deadline: time.Now().Add(time.Minute)}
		done, err := replaySample(p, w, in, time.Now().Add(time.Minute))
		st.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(done) == 0 {
			t.Fatalf("%s: nothing replayed", name)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", name, len(tr.stack))
		}
		roots := map[string]int{}
		for i, s := range tr.spans {
			if s.EndNS < s.StartNS {
				t.Errorf("%s: span %d (%s) ends before it starts", name, i, s.Name)
			}
			if s.Parent < 0 {
				roots[s.OpID]++
				continue
			}
			parent := tr.spans[s.Parent]
			if s.Parent >= i || s.StartNS < parent.StartNS || s.EndNS > parent.EndNS {
				t.Errorf("%s: span %d (%s) not inside its parent %s", name, i, s.Name, parent.Name)
			}
			if s.OpID != parent.OpID {
				t.Errorf("%s: span %d (%s) has op %s, its parent %s", name, i, s.Name, s.OpID, parent.OpID)
			}
		}
		for op, n := range roots {
			if n != 1 && !strings.HasPrefix(op, "probe/") && op != "startup" {
				t.Errorf("%s: operation %s has %d roots", name, op, n)
			}
		}
		out := metricsFromSpans(tr.spans)
		for _, must := range []string{"parser.program_ms", "parser.atom_us", "resilience.acquire_ns", "share.pipeline"} {
			if _, ok := out[must]; !ok {
				t.Errorf("%s: no %s in the layer metrics", name, must)
			}
		}
	}
}
