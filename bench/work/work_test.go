package work

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
)

// tiny is large enough for every generator's ranges and small enough for
// naive evaluation of the whole program.
var tiny = Sizes{ChainN: 48, GraphN: 24, GraphM: 60, TreeDepth: 4, JoinN: 32, JoinFanout: 2}

func flatten(w *Workload) string {
	var b strings.Builder
	for c := range w.Ops {
		for _, op := range w.Ops[c] {
			fmt.Fprintf(&b, "%d %s %s %s %v\n", c, op.Class, op.Target, op.Body, op.Want)
		}
	}
	return b.String()
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range Names {
		a, err := Generate(name, Smoke, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(name, Smoke, 7, 3)
		c, _ := Generate(name, Smoke, 8, 3)
		if a.Program != b.Program || flatten(a) != flatten(b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a.Program == c.Program {
			t.Errorf("%s: seeds 7 and 8 gave the same mixed.dl", name)
		}
		if flatten(a) == flatten(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation lists", name)
		}
		for conn := range a.Ops {
			if len(a.Ops[conn]) == 0 {
				t.Errorf("%s: connection %d has no operations", name, conn)
			}
		}
	}
	if _, err := Generate("nope", Smoke, 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestColdBoundNeverRepeats(t *testing.T) {
	w, err := Generate(ColdBound, Full, 1, 160)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range append(append(append([]*Request(nil), w.Warmup...), w.Ops[0]...), w.Ops[1]...) {
		if seen[op.Query] {
			t.Fatalf("%s bound twice: the second would hit the caches", op.Query)
		}
		seen[op.Query] = true
	}
}

// naive evaluates query over program text + facts with the engine's naive
// strategy: the reference the oracle is checked against.
func naive(t *testing.T, src string, query string) Expected {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseAtom(query)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	if err := engine.LoadFacts(db, u.Facts); err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(u.Program(), q).Run(pipeline.Naive, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return DigestRendered(pipeline.SortedAnswers(res))
}

func TestOracleAgreesWithNaiveEvaluation(t *testing.T) {
	d := NewEDB(tiny, 3)
	src := d.Program()
	leaf := d.TreeNodes()[len(d.TreeNodes())-1]
	for _, c := range []struct {
		query string
		want  Expected
	}{
		{"t(5,Y)", DigestInts(Reach(d.E, 5))},
		{"t(47,Y)", DigestInts(Reach(d.E, 47))},
		{"r(2,Y)", DigestInts(Reach(d.G, 2))},
		{"r(X,2)", DigestInts(ReachBack(d.G, 2))},
		{"sg(" + leaf + ",Y)", DigestNames(d.SameGen(leaf))},
		{"sg(nl,Y)", DigestNames(d.SameGen("nl"))},
		{"sg(n,Y)", DigestNames(d.SameGen("n"))},
		{"t6(3,Z)", DigestInts(d.Join(JoinStages, 3))},
		{"t2(X,Z)", DigestPairs(d.JoinAll(2))},
	} {
		if got := naive(t, src, c.query); got != c.want {
			t.Errorf("%s: naive evaluation gives %+v, the oracle %+v", c.query, got, c.want)
		}
	}
	// Closed forms: the chain reaches everything after k, a leaf's same
	// generation is the other subtree's leaves.
	if got := len(Reach(d.E, 5)); got != tiny.ChainN-5 {
		t.Errorf("t(5,Y) over the chain: %d answers, want %d", got, tiny.ChainN-5)
	}
	if got := len(d.SameGen(leaf)); got != 1<<(tiny.TreeDepth-1) {
		t.Errorf("sg(leaf,Y): %d answers, want %d", got, 1<<(tiny.TreeDepth-1))
	}
}

// TestOracleFollowsMutations walks live_mutation's lists, applies every
// batch to a plain fact set, and checks each query's expected answer
// against naive evaluation over program + that set.
func TestOracleFollowsMutations(t *testing.T) {
	w, err := Generate(LiveMutation, tiny, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	u, err := parser.Parse(w.Program)
	if err != nil {
		t.Fatal(err)
	}
	facts := map[string]bool{}
	for _, f := range u.Facts {
		facts[f.String()] = true
	}
	source := func() string {
		var b strings.Builder
		b.WriteString(Rules)
		for f := range facts {
			b.WriteString(f + ".\n")
		}
		return b.String()
	}
	canon := func(f string) string {
		a, err := parser.ParseAtom(f)
		if err != nil {
			t.Fatal(err)
		}
		return a.String()
	}
	for _, req := range w.Warmup {
		if got := naive(t, source(), req.Query); got != req.Want {
			t.Errorf("warm-up %s: naive %+v, oracle %+v", req.Query, got, req.Want)
		}
	}
	// The connections mutate disjoint predicates, so any interleaving of
	// whole connections is a valid history.
	for conn := range w.Ops {
		for _, req := range w.Ops[conn] {
			if req.IsFacts() {
				for _, f := range req.Retract {
					if !facts[canon(f)] {
						t.Errorf("retract of absent fact %s", f)
					}
					delete(facts, canon(f))
				}
				for _, f := range req.Assert {
					if facts[canon(f)] {
						t.Errorf("assert of present fact %s", f)
					}
					facts[canon(f)] = true
				}
				continue
			}
			if got := naive(t, source(), req.Query); got != req.Want {
				t.Errorf("conn %d %s: naive %+v, oracle %+v", conn, req.Query, got, req.Want)
			}
		}
	}
}

func TestScanAnswers(t *testing.T) {
	raw := []byte("[\n    \"(5)\",\n    \"(nlr)\",\n    \"(1,2)\"\n  ]")
	want := DigestRendered([]string{"(1,2)", "(5)", "(nlr)"})
	if got := ScanAnswers(raw); got != want {
		t.Errorf("ScanAnswers = %+v, want %+v", got, want)
	}
	if got := ScanAnswers([]byte("[]")); got != (Expected{}) {
		t.Errorf("empty array: %+v", got)
	}
	if DigestInts([]int{5}) != DigestRendered([]string{"(5)"}) ||
		DigestPairs([][2]int{{1, 2}}) != DigestRendered([]string{"(1,2)"}) ||
		DigestNames([]string{"nlr"}) != DigestRendered([]string{"(nlr)"}) {
		t.Error("the digests disagree on how an answer is rendered")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !sort.Float64sAreSorted([]float64{1, 2}) || xs[0] != 5 {
		t.Error("Percentile reordered its input")
	}
	if got := Median([]float64{1, 2}); got != 1.5 {
		t.Errorf("Median(1,2) = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty sample should be NaN")
	}
}
