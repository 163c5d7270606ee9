package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/cost"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/workload"
)

// chainTCFamily is the paper's flagship shape: linear transitive closure
// with a bound query, where factoring reduces the recursion to unary.
const chainTCSrc = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`

// autoFamily is one benchmark family for the optimizer tests.
type autoFamily struct {
	name  string
	prog  string
	query string
	load  func(db *engine.DB)
}

func autoFamilies() []autoFamily {
	return []autoFamily{
		{
			name:  "chain-tc",
			prog:  chainTCSrc,
			query: "tc(1, Y)",
			load:  func(db *engine.DB) { workload.Chain(db, "e", 120) },
		},
		{
			name:  "layered-joins",
			prog:  workload.LayeredJoinProgram(4),
			query: workload.LayeredJoinQuery(4).String(),
			load:  func(db *engine.DB) { workload.LayeredJoins(db, 4, 80, 2) },
		},
		{
			name:  "wide-pairs",
			prog:  "hit(X, Y) :- w(X, Y).\nhit2(Y) :- hit(3, Y).",
			query: "hit2(Y)",
			load:  func(db *engine.DB) { workload.WidePairs(db, "w", 2000, 8) },
		},
	}
}

func familyPipeline(t *testing.T, f autoFamily) *Pipeline {
	t.Helper()
	p, err := parser.ParseProgram(f.prog)
	if err != nil {
		t.Fatalf("%s: parse: %v", f.name, err)
	}
	return New(p, mustAtom(t, f.query))
}

// The bound chain query is the configuration the paper's factoring theorem
// targets: the optimizer must pick an arity-reduced (factored) plan and
// produce a well-formed candidate table.
func TestAutoPickChainTC(t *testing.T) {
	pl := familyPipeline(t, autoFamilies()[0])
	db := engine.NewDB()
	workload.Chain(db, "e", 120)
	dec, err := pl.AutoPick(cost.SnapshotFromDB(db, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Strategy != Factored && dec.Strategy != FactoredOptimized {
		t.Errorf("chain TC picked %s, want a factored variant\n%s",
			dec.Strategy, candidateDump(dec.Candidates))
	}
	chosen := 0
	for _, c := range dec.Candidates {
		if c.Chosen {
			chosen++
			if c.Reason == "" {
				t.Error("chosen candidate has no reason")
			}
		} else if c.Reason == "" {
			t.Errorf("losing candidate %s (reorder=%v) has no reason", c.Strategy, c.Reorder)
		}
	}
	if chosen != 1 {
		t.Errorf("%d chosen candidates, want 1", chosen)
	}
	if len(dec.Candidates) < len(AutoCandidateStrategies()) {
		t.Errorf("only %d candidates for %d strategies", len(dec.Candidates), len(AutoCandidateStrategies()))
	}
}

func candidateDump(cands []CandidateInfo) string {
	var b strings.Builder
	for _, c := range cands {
		fmt.Fprintf(&b, "  %s reorder=%v cost=%.1f chosen=%v %s\n",
			c.Strategy, c.Reorder, c.Cost, c.Chosen, c.Reason)
	}
	return b.String()
}

// Property: on every benchmark family, the Auto pick's measured work
// (inference count — deterministic, unlike wall time) is within 2x of the
// best fixed strategy's. Runs under -race in CI.
func TestAutoWithinTwiceBestFixed(t *testing.T) {
	for _, f := range autoFamilies() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			pl := familyPipeline(t, f)
			newDB := func() *engine.DB {
				db := engine.NewDB()
				f.load(db)
				return db
			}
			best := -1
			bestName := ""
			for _, s := range AutoCandidateStrategies() {
				r, err := pl.Run(s, newDB(), engine.Options{})
				if err != nil {
					continue // strategy rejected for this family
				}
				if best < 0 || r.Inferences < best {
					best, bestName = r.Inferences, s.String()
				}
			}
			if best < 0 {
				t.Fatal("no fixed strategy succeeded")
			}
			auto, err := pl.Run(Auto, newDB(), engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !auto.AutoPicked {
				t.Error("AutoPicked not set on Auto run")
			}
			if len(auto.Candidates) == 0 {
				t.Error("Auto run carries no candidate table")
			}
			if auto.Inferences > 2*best {
				t.Errorf("auto picked %s with %d inferences; best fixed %s has %d (>2x)\n%s",
					auto.Strategy, auto.Inferences, bestName, best, candidateDump(auto.Candidates))
			}
		})
	}
}

// Auto must agree with the fixed strategies on answers, not just cost.
func TestAutoAnswersMatchSemiNaive(t *testing.T) {
	for _, f := range autoFamilies() {
		pl := familyPipeline(t, f)
		newDB := func() *engine.DB {
			db := engine.NewDB()
			f.load(db)
			return db
		}
		want, err := pl.Run(SemiNaive, newDB(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: semi-naive: %v", f.name, err)
		}
		got, err := pl.Run(Auto, newDB(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: auto: %v", f.name, err)
		}
		if len(got.Answers) != len(want.Answers) {
			t.Fatalf("%s: auto (%s) found %d answers, semi-naive %d",
				f.name, got.Strategy, len(got.Answers), len(want.Answers))
		}
		for a := range want.Answers {
			if !got.Answers[a] {
				t.Fatalf("%s: auto (%s) missing answer %s", f.name, got.Strategy, a)
			}
		}
	}
}

// Provenance evaluation needs a caller-fixed strategy; Auto must refuse
// with the typed sentinel HTTP handlers map to a 400.
func TestAutoProvenanceUnsupported(t *testing.T) {
	pl := familyPipeline(t, autoFamilies()[0])
	db := engine.NewDB()
	workload.Chain(db, "e", 4)
	_, err := pl.Run(Auto, db, engine.Options{Provenance: true})
	if !errors.Is(err, ErrAutoUnsupported) {
		t.Fatalf("err = %v, want ErrAutoUnsupported", err)
	}
}

// Compile(Auto) is a contract violation, not a panic.
func TestCompileAutoRejected(t *testing.T) {
	pl := familyPipeline(t, autoFamilies()[0])
	if err := pl.Compile(Auto); err == nil {
		t.Fatal("Compile(Auto) succeeded")
	}
}

// Shadow re-costing: a decision made over a tiny EDB is re-costed after a
// mutation-driven skew flip (thousands of asserted chain edges) and the
// planner must invalidate it for an arity-reduced rival. Exercises the full
// loop: Materializer.Apply -> epoch trigger -> re-cost -> margin -> repick.
func TestAutoPlannerRepicksAfterSkewFlip(t *testing.T) {
	p, err := parser.ParseProgram(chainTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "tc(1, Y)")

	// Tiny base: 3 edges. The optimizer should favor the small program
	// (semi-naive) — rewrite rules cost more than they save at this size.
	base := []ast.Atom{}
	for i := 1; i <= 3; i++ {
		a, err := parser.ParseAtom(fmt.Sprintf("e(%d, %d)", i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, a)
	}
	cache := NewPlanCache()
	mat, err := NewMaterializer(p, nil, base, cache, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planner := NewAutoPlanner(p, nil, cache, SnapshotSource(mat),
		AutoPolicy{RecostEpochs: 1})

	first, err := planner.Choose(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if first.Recosted || first.Repicked {
		t.Fatalf("first choice reported recost=%v repick=%v", first.Recosted, first.Repicked)
	}

	// Same epoch: the decision is fresh, no re-cost.
	again, err := planner.Choose(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if again.Recosted {
		t.Fatal("fresh decision was re-costed")
	}
	if !again.PlanHit {
		t.Error("fresh decision missed the plan cache")
	}

	// Skew flip: assert a 3000-edge chain through Materializer.Apply. The
	// epoch advances, the re-cost trigger fires, and the factored plan's
	// O(n) estimate must now beat the incumbent's O(n^2) by the margin.
	var assert []ast.Atom
	for i := 4; i <= 3000; i++ {
		a, err := parser.ParseAtom(fmt.Sprintf("e(%d, %d)", i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		assert = append(assert, a)
	}
	if _, err := mat.Apply(assert, nil); err != nil {
		t.Fatal(err)
	}

	flipped, err := planner.Choose(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if !flipped.Recosted {
		t.Fatal("skewed choice was not re-costed")
	}
	if !flipped.Repicked {
		t.Fatalf("re-cost kept %s after the skew flip\n%s",
			flipped.Strategy, candidateDump(flipped.Candidates))
	}
	if flipped.Strategy == first.Strategy {
		t.Fatalf("repick reports a switch but strategy stayed %s", flipped.Strategy)
	}

	st := planner.Stats()
	if st.Picks != 1 || st.Recosts != 1 || st.Repicks != 1 || st.Wins != 0 {
		t.Errorf("counters = picks %d recosts %d repicks %d wins %d, want 1/1/1/0",
			st.Picks, st.Recosts, st.Repicks, st.Wins)
	}
	if st.RecostWall == nil || st.RecostWall.Count != 1 {
		t.Error("recost wall histogram not observed")
	}
	if st.PicksByStrategy[flipped.Strategy.String()] == 0 {
		t.Errorf("picks_by_strategy missing %s: %v", flipped.Strategy, st.PicksByStrategy)
	}
}

// A re-cost whose rival does not clear the margin keeps the incumbent and
// counts a win.
func TestAutoPlannerWinWithoutRepick(t *testing.T) {
	p, err := parser.ParseProgram(chainTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "tc(1, Y)")
	var base []ast.Atom
	for i := 1; i <= 500; i++ {
		a, perr := parser.ParseAtom(fmt.Sprintf("e(%d, %d)", i, i+1))
		if perr != nil {
			t.Fatal(perr)
		}
		base = append(base, a)
	}
	cache := NewPlanCache()
	mat, err := NewMaterializer(p, nil, base, cache, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planner := NewAutoPlanner(p, nil, cache, SnapshotSource(mat),
		AutoPolicy{RecostEpochs: 1})

	first, err := planner.Choose(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	// A handful more edges changes the epoch but not the shape: the same
	// strategy must win again.
	a, _ := parser.ParseAtom("e(501, 502)")
	if _, err := mat.Apply([]ast.Atom{a}, nil); err != nil {
		t.Fatal(err)
	}
	second, err := planner.Choose(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Recosted || second.Repicked {
		t.Fatalf("recost=%v repick=%v, want recost without repick", second.Recosted, second.Repicked)
	}
	if second.Strategy != first.Strategy {
		t.Fatalf("strategy changed %s -> %s without a repick", first.Strategy, second.Strategy)
	}
	st := planner.Stats()
	if st.Wins != 1 || st.Repicks != 0 {
		t.Errorf("wins=%d repicks=%d, want 1/0", st.Wins, st.Repicks)
	}
}

// The decision map is keyed by the canonical query, constants included, so
// a constant sweep must not grow it past the plan cache's limit; an evicted
// shape re-picks from nothing and lands on the same strategy.
func TestAutoPlannerDecisionsBounded(t *testing.T) {
	const limit = 8
	p, err := parser.ParseProgram(chainTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	var base []ast.Atom
	for i := 1; i <= 60; i++ {
		base = append(base, mustAtom(t, fmt.Sprintf("e(%d, %d)", i, i+1)))
	}
	cache := NewPlanCacheLimit(limit)
	mat, err := NewMaterializer(p, nil, base, cache, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planner := NewAutoPlanner(p, nil, cache, SnapshotSource(mat), AutoPolicy{})

	queries := make([]ast.Atom, 3*limit)
	for i := range queries {
		queries[i] = mustAtom(t, fmt.Sprintf("tc(%d, Y)", i+1))
	}
	first := make([]Strategy, len(queries))
	const sweepers = 4
	var wg sync.WaitGroup
	for w := 0; w < sweepers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += sweepers {
				serve, cerr := planner.Choose(context.Background(), queries[i])
				if cerr != nil {
					t.Errorf("choose %s: %v", queries[i], cerr)
					return
				}
				first[i] = serve.Strategy
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	planner.mu.Lock()
	remembered, listed := len(planner.decisions), planner.order.Len()
	evicted := -1
	for i, q := range queries {
		if _, ok := planner.decisions[q.CanonicalKey()]; !ok {
			evicted = i
			break
		}
	}
	planner.mu.Unlock()
	if remembered > limit || listed != remembered {
		t.Fatalf("%d decisions remembered (%d listed) after %d distinct constants, want at most %d",
			remembered, listed, len(queries), limit)
	}
	if got := planner.Stats().Picks; got != int64(len(queries)) {
		t.Errorf("picks = %d, want %d", got, len(queries))
	}
	if evicted < 0 {
		t.Fatal("no decision was evicted")
	}

	again, err := planner.Choose(context.Background(), queries[evicted])
	if err != nil {
		t.Fatal(err)
	}
	if again.Recosted || again.Strategy != first[evicted] {
		t.Errorf("evicted %s: recosted=%v strategy=%s, want a fresh pick of %s",
			queries[evicted], again.Recosted, again.Strategy, first[evicted])
	}
	if got := planner.Stats().Picks; got != int64(len(queries))+1 {
		t.Errorf("picks after revisit = %d, want %d", got, len(queries)+1)
	}
	planner.mu.Lock()
	remembered = len(planner.decisions)
	planner.mu.Unlock()
	if remembered > limit {
		t.Errorf("%d decisions remembered after the revisit, want at most %d", remembered, limit)
	}
}
