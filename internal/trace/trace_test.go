package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	c := New(NewID())
	eval := c.Root().Child("eval")
	st := eval.Child("stratum").SetStratum(0).SetNote("t")
	r0 := st.Child("round").SetRound(0).SetTuples(10, 4)
	r0.End()
	r1 := st.Child("round").SetRound(1).SetTuples(6, 0)
	r1.End()
	st.End()
	eval.End()
	c.Finish()

	if got := c.Spans(); got != 5 {
		t.Fatalf("Spans() = %d, want 5 (root, eval, stratum, 2 rounds)", got)
	}
	snap := c.Snapshot()
	if snap.Root.Name != "query" || len(snap.Root.Children) != 1 {
		t.Fatalf("root = %+v", snap.Root)
	}
	strat := snap.Root.Children[0].Children[0]
	if strat.Stratum == nil || *strat.Stratum != 0 || strat.Note != "t" {
		t.Errorf("stratum span = %+v", strat)
	}
	if len(strat.Children) != 2 {
		t.Fatalf("rounds = %d, want 2", len(strat.Children))
	}
	if strat.Children[1].TuplesIn != 6 || strat.Children[1].TuplesOut != 0 {
		t.Errorf("round 1 tuples = %+v", strat.Children[1])
	}
	// Unset attributes must be absent from the JSON, not -1.
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), ":-1") {
		t.Errorf("JSON leaks -1 sentinels: %s", raw)
	}
	if !strings.Contains(string(raw), `"round":1`) {
		t.Errorf("JSON missing round attribute: %s", raw)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var c *Context
	if c.ID() != "" || c.Root() != nil || c.Spans() != 0 || c.Profile() != "" {
		t.Error("nil Context methods must return zero values")
	}
	c.Finish() // must not panic

	var s *Span
	s2 := s.Child("x").SetRound(3).SetRule(1).SetTuples(1, 2).SetNote("n").SetCached(true)
	if s2 != nil {
		t.Error("nil span chain must stay nil")
	}
	s.End()
	s.AddFinished("y", time.Second)
	if s.Wall() != 0 || s.Children() != nil {
		t.Error("nil span accessors must return zero values")
	}
}

func TestSpanLimitBoundsMemory(t *testing.T) {
	c := NewLimit("q", 4) // root + 3
	root := c.Root()
	var made int
	for i := 0; i < 10; i++ {
		if root.Child("s") != nil {
			made++
		}
	}
	if made != 3 {
		t.Errorf("spans created = %d, want 3", made)
	}
	if c.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", c.Dropped())
	}
	// A dropped span's children chain off nil safely.
	dead := root.Child("extra")
	if dead.Child("grandchild") != nil {
		t.Error("children of dropped spans must be nil")
	}
	if !strings.Contains(c.Profile(), "dropped") {
		t.Error("Profile should report dropped spans")
	}
}

func TestEndTwiceKeepsFirstMeasurement(t *testing.T) {
	c := New("q")
	s := c.Root().Child("x")
	s.End()
	w := s.Wall()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Wall() != w {
		t.Errorf("second End changed wall %v -> %v", w, s.Wall())
	}
	c.Finish()
	total := c.Wall()
	time.Sleep(2 * time.Millisecond)
	if c.Wall() != total {
		t.Errorf("second Finish window changed wall %v -> %v", total, c.Wall())
	}
}

func TestProfileRendersAttributes(t *testing.T) {
	c := New("q-test-7")
	c.Root().AddFinished("adorn", 42*time.Microsecond).SetCached(true).SetNote("rules 4→9")
	ev := c.Root().Child("eval")
	ev.Child("round").SetRound(0).SetTuples(5, 2).End()
	ev.End()
	c.Finish()
	p := c.Profile()
	for _, want := range []string{"trace q-test-7", "adorn", "(cached)", "rules 4→9", "round 0", "in 5 out 2"} {
		if !strings.Contains(p, want) {
			t.Errorf("profile missing %q:\n%s", want, p)
		}
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

// TestNewIDShape: an ID is "q-", the process prefix, '-' and the counter.
func TestNewIDShape(t *testing.T) {
	before := idCounter.Load()
	if id, want := NewID(), fmt.Sprintf("q-%s-%d", idPrefix, before+1); id != want {
		t.Errorf("NewID() = %q, want %q", id, want)
	}
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample() {
		t.Error("every=0 must never sample")
	}
	var nils *Sampler
	if nils.Sample() {
		t.Error("nil sampler must never sample")
	}
	always := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !always.Sample() {
			t.Fatal("every=1 must always sample")
		}
	}
	s4 := NewSampler(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s4.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Errorf("every=4 sampled %d of 400, want 100", hits)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if r.Get("nope") != nil {
		t.Error("empty ring lookup must be nil")
	}
	var ids []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("q-%d", i)
		ids = append(ids, id)
		c := New(id)
		c.Finish()
		r.Add(c)
	}
	// Oldest two evicted.
	if r.Get(ids[0]) != nil || r.Get(ids[1]) != nil {
		t.Error("evicted traces still reachable")
	}
	for _, id := range ids[2:] {
		if got := r.Get(id); got == nil || got.ID() != id {
			t.Errorf("Get(%s) = %v", id, got)
		}
	}
	recent := r.Recent()
	if len(recent) != 3 || recent[0].ID() != ids[4] || recent[2].ID() != ids[2] {
		t.Errorf("Recent order wrong: %v", recent)
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	var nilRing *Ring
	nilRing.Add(New("x"))
	if nilRing.Get("x") != nil || nilRing.Recent() != nil || nilRing.Total() != 0 {
		t.Error("nil ring must be a no-op")
	}
}

// TestConcurrentTracesDoNotInterleave runs many traced "queries" in
// parallel, each building its own Context the way the engine does (strata,
// rounds, concurrent worker spans), and checks every span landed in its own
// query's tree with the expected counts. Run under -race this also proves
// the locking discipline.
func TestConcurrentTracesDoNotInterleave(t *testing.T) {
	const queries, rounds, workers = 16, 8, 4
	traces := make([]*Context, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			c := New(fmt.Sprintf("q-%d", q))
			traces[q] = c
			eval := c.Root().Child("eval").SetNote(c.ID())
			st := eval.Child("stratum").SetStratum(0)
			for r := 0; r < rounds; r++ {
				rs := st.Child("round").SetRound(r).SetNote(c.ID())
				// Concurrent children of one round, like parallel workers.
				var rwg sync.WaitGroup
				for w := 0; w < workers; w++ {
					rwg.Add(1)
					go func(w int) {
						defer rwg.Done()
						ws := rs.Child("worker").SetWorker(w).SetNote(c.ID())
						ws.End()
					}(w)
				}
				rwg.Wait()
				rs.End()
			}
			st.End()
			eval.End()
			c.Finish()
		}(q)
	}
	wg.Wait()

	for q, c := range traces {
		wantSpans := 3 + rounds + rounds*workers // root + eval + stratum + rounds + workers
		if got := c.Spans(); got != wantSpans {
			t.Errorf("query %d: spans = %d, want %d", q, got, wantSpans)
		}
		// Every note in the tree must carry this query's ID.
		var check func(s spanJSON)
		id := c.ID()
		check = func(s spanJSON) {
			if s.Note != "" && s.Note != id {
				t.Errorf("query %d: foreign span note %q in tree", q, s.Note)
			}
			for _, child := range s.Children {
				check(child)
			}
		}
		check(c.Snapshot().Root)
	}
}

// TestDisabledTracingAllocatesNothing pins the zero-cost-off contract: the
// whole instrumentation surface on nil receivers performs zero allocations.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	var c *Context
	var sampler *Sampler
	allocs := testing.AllocsPerRun(1000, func() {
		sp := c.Root().Child("round").SetRound(1).SetRule(2).SetTuples(3, 4).SetAllocs(5, 6)
		sp.AddTuplesOut(1)
		sp.End()
		c.Finish()
		_ = sampler.Sample()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v per op, want 0", allocs)
	}
}

// BenchmarkDisabledSpanOps measures the per-call overhead of the nil-tracer
// fast path; it should be a few ns and 0 allocs/op.
func BenchmarkDisabledSpanOps(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Child("round").SetRound(i).SetTuples(1, 2).End()
	}
}

// BenchmarkEnabledRoundSpan measures the traced path per round-level span,
// the granularity the engine records at.
func BenchmarkEnabledRoundSpan(b *testing.B) {
	c := NewLimit("bench", b.N+2)
	root := c.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.Child("round").SetRound(i).SetTuples(1, 2).End()
	}
}
