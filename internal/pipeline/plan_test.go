package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/core"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

const tcSrc = `
t(X, Y) :- t(X, W), t(W, Y).
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).
`

func mustAtom(t *testing.T, s string) ast.Atom {
	t.Helper()
	q, err := parser.ParseAtom(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func edgeDB() *engine.DB {
	db := engine.NewDB()
	for _, edge := range [][2]int{{5, 6}, {6, 7}, {7, 8}, {1, 2}} {
		db.MustInsert("e", db.Store.Int(edge[0]), db.Store.Int(edge[1]))
	}
	return db
}

func TestPlanCacheHitMiss(t *testing.T) {
	p, err := parser.ParseProgram(tcSrc)
	if err != nil {
		t.Fatal(err)
	}
	hash := HashProgram(p, nil)
	c := NewPlanCache()

	q5 := mustAtom(t, "t(5, Y)")
	plan, hit, err := c.Lookup(context.Background(), p, hash, nil, q5, Magic)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup reported a hit")
	}
	if plan.Key.Adornment != "bf" || plan.Binding != "(5)" {
		t.Errorf("plan identity = %s %s, want bf (5)", plan.Key.Adornment, plan.Binding)
	}

	plan2, hit, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, "t(5, Z)"), Magic)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("identical query (up to variable names) missed")
	}
	if plan2 != plan {
		t.Error("identical query returned a different plan")
	}

	// Different constant: same shape, so no rewrite runs — the plan binds 6
	// into the template t(5,Y) compiled.
	plan6, hit, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, "t(6, Y)"), Magic)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || plan6 == plan || plan6.Binding != "(6)" {
		t.Errorf("different constant: hit=%v binding %s, want a hit on the template bound to (6)", hit, plan6.Binding)
	}
	// Different strategy: separate plan.
	_, hit, err = c.Lookup(context.Background(), p, hash, nil, q5, SupplementaryMagic)
	if err != nil || hit {
		t.Errorf("different strategy: hit=%v err=%v", hit, err)
	}

	st := c.Stats()
	if st.Entries != 3 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 3 entries, 2 hits, 2 misses", st)
	}
}

// TestPlanCacheDistinguishesRepeatedVariables guards the cache identity
// against variable-equality aliasing: t(X,X) and t(X,Y) both adorn as "ff"
// with no bound constants, but they are different queries (the diagonal vs
// all pairs) and must never share a plan.
func TestPlanCacheDistinguishesRepeatedVariables(t *testing.T) {
	p, err := parser.ParseProgram(tcSrc)
	if err != nil {
		t.Fatal(err)
	}
	hash := HashProgram(p, nil)
	c := NewPlanCache()

	pairPlan, _, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, "t(X, Y)"), Magic)
	if err != nil {
		t.Fatal(err)
	}
	diagPlan, hit, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, "t(X, X)"), Magic)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("t(X,X) hit the plan cached for t(X,Y)")
	}
	if diagPlan == pairPlan {
		t.Error("t(X,X) and t(X,Y) share a plan")
	}

	res, err := pairPlan.Run(edgeDB(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 7 {
		t.Errorf("t(X,Y): %d answers, want 7", len(res.Answers))
	}
	// The edge graph is acyclic, so the diagonal is empty; before the
	// canonical-query fix this returned all 7 pairs via the aliased plan.
	res, err = diagPlan.Run(edgeDB(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("t(X,X): %d answers %v, want none", len(res.Answers), SortedAnswers(res))
	}
}

// TestPlanCacheEviction checks the LRU bound: the cache never holds more
// than its limit, evicts the least recently used entry, and recompiles an
// evicted shape on re-lookup. Compound bound arguments are never
// parameterised, so each query below is its own shape.
func TestPlanCacheEviction(t *testing.T) {
	p, err := parser.ParseProgram(tcSrc)
	if err != nil {
		t.Fatal(err)
	}
	hash := HashProgram(p, nil)
	c := NewPlanCacheLimit(2)

	for _, q := range []string{"t(f(5), Y)", "t(f(6), Y)", "t(f(7), Y)"} {
		if _, _, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, q), Magic); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts: %+v, want 2 entries, 1 eviction", st)
	}

	// t(f(5),Y) was the LRU entry and is gone; looking it up again
	// recompiles (a miss) and evicts t(f(6),Y) in turn, while t(f(7),Y)
	// stays resident.
	if _, hit, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, "t(f(5), Y)"), Magic); err != nil || hit {
		t.Errorf("evicted shape: hit=%v err=%v, want fresh miss", hit, err)
	}
	if _, hit, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, "t(f(7), Y)"), Magic); err != nil || !hit {
		t.Errorf("resident shape: hit=%v err=%v, want hit", hit, err)
	}
	st = c.Stats()
	if st.Entries != 2 || st.Evictions != 2 || st.Hits != 1 || st.Misses != 4 {
		t.Errorf("final stats %+v, want 2 entries, 2 evictions, 1 hit, 4 misses", st)
	}
}

func TestPlanCacheSpecializesOnConstants(t *testing.T) {
	p, err := parser.ParseProgram(tcSrc)
	if err != nil {
		t.Fatal(err)
	}
	hash := HashProgram(p, nil)
	c := NewPlanCache()

	for query, want := range map[string]int{"t(5, Y)": 3, "t(6, Y)": 2} {
		plan, _, err := c.Lookup(context.Background(), p, hash, nil, mustAtom(t, query), FactoredOptimized)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(edgeDB(), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != want {
			t.Errorf("%s: %d answers, want %d", query, len(res.Answers), want)
		}
	}
}

func TestPlanCacheCachesFailures(t *testing.T) {
	// Same-generation is not factorable (no condition of Section 4 applies),
	// so the Factored strategy fails to compile; the refusal is cached too.
	src := `
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
`
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	hash := HashProgram(p, nil)
	c := NewPlanCache()
	q := mustAtom(t, "sg(john, Y)")

	_, hit, err := c.Lookup(context.Background(), p, hash, nil, q, Factored)
	if err == nil {
		t.Fatal("want a factoring error")
	}
	if !errors.Is(err, core.ErrNotFactorable) {
		t.Fatalf("want ErrNotFactorable, got %v", err)
	}
	if hit {
		t.Error("first failing lookup reported a hit")
	}
	_, hit, err2 := c.Lookup(context.Background(), p, hash, nil, q, Factored)
	if err2 == nil || !hit {
		t.Errorf("cached failure: hit=%v err=%v", hit, err2)
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines; run under
// -race this checks the cache, the shared Pipeline memoization, and
// concurrent Plan.Runs over private DBs.
func TestPlanCacheConcurrent(t *testing.T) {
	p, err := parser.ParseProgram(tcSrc)
	if err != nil {
		t.Fatal(err)
	}
	hash := HashProgram(p, nil)
	c := NewPlanCache()
	queries := []string{"t(5, Y)", "t(6, Y)"}
	strategies := []Strategy{Magic, SupplementaryMagic, FactoredOptimized}

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		q, s := queries[i%len(queries)], strategies[i%len(strategies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			query, err := parser.ParseAtom(q)
			if err != nil {
				errs <- err
				return
			}
			plan, _, err := c.Lookup(context.Background(), p, hash, nil, query, s)
			if err != nil {
				errs <- err
				return
			}
			res, err := plan.Run(edgeDB(), engine.Options{})
			if err != nil {
				errs <- fmt.Errorf("%s/%s: %v", q, s, err)
				return
			}
			want := 3
			if q == "t(6, Y)" {
				want = 2
			}
			if len(res.Answers) != want {
				errs <- fmt.Errorf("%s/%s: %d answers, want %d", q, s, len(res.Answers), want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Entries != len(queries)*len(strategies) {
		t.Errorf("entries = %d, want %d", st.Entries, len(queries)*len(strategies))
	}
	if st.Hits+st.Misses != n {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, n)
	}
}

func TestHashProgramDistinguishes(t *testing.T) {
	p1, _ := parser.ParseProgram(tcSrc)
	p2, _ := parser.ParseProgram(tcSrc + "\nt(X, X) :- e(X, X).")
	if HashProgram(p1, nil) == HashProgram(p2, nil) {
		t.Error("different programs share a hash")
	}
	if HashProgram(p1, nil) != HashProgram(p1, nil) {
		t.Error("same program hashes unstably")
	}
	tgd, _ := parser.ParseProgram("e(X, Y) :- e(Y, X).")
	if HashProgram(p1, nil) == HashProgram(p1, tgd.Rules) {
		t.Error("constraints do not affect the hash")
	}
}
