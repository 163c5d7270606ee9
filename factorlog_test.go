package factorlog_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"factorlog"
)

const tc3Src = `
	t(X, Y) :- t(X, W), t(W, Y).
	t(X, Y) :- e(X, W), t(W, Y).
	t(X, Y) :- t(X, W), e(W, Y).
	t(X, Y) :- e(X, Y).
	?- t(5, Y).
`

func loadTC(t *testing.T) *factorlog.System {
	t.Helper()
	sys, err := factorlog.Load(tc3Src)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func chainDB(sys *factorlog.System, n int) *factorlog.DB {
	db := sys.NewDB()
	for i := 1; i < n; i++ {
		db.Fact("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return db
}

func TestLoadAndRun(t *testing.T) {
	sys := loadTC(t)
	res, err := sys.Run(factorlog.FactoredOptimized, chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 5 { // 6..10
		t.Errorf("answers = %v", res.Answers)
	}
	if res.MaxIDBArity != 1 {
		t.Errorf("arity = %d, want 1", res.MaxIDBArity)
	}
}

// TestWithTrace checks the facade's one tracing switch: every traced Run,
// sequential or parallel, prepared or not, records a span tree of its own
// beside the per-rule counters, and an untraced Run records neither.
func TestWithTrace(t *testing.T) {
	sys := loadTC(t)
	res, err := sys.Run(factorlog.FactoredOptimized, chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.Rules != nil {
		t.Errorf("untraced run recorded a trace or counters")
	}
	sys.WithTrace(true).WithWorkers(2)
	first, err := sys.Run(factorlog.FactoredOptimized, chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sys.Prepare(factorlog.FactoredOptimized)
	if err != nil {
		t.Fatal(err)
	}
	second, err := prep.Run(context.Background(), chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace == nil || second.Trace == nil || first.Trace.ID() == second.Trace.ID() {
		t.Fatalf("traced runs must each record their own trace")
	}
	for _, r := range []*factorlog.Result{first, second} {
		if len(r.Rules) == 0 {
			t.Errorf("traced run has no per-rule counters")
		}
		out := r.Profile()
		for _, want := range []string{"factor", "arity 2→1", "eval", "stratum", "round", "worker", "firings"} {
			if !strings.Contains(out, want) {
				t.Errorf("Profile missing %q:\n%s", want, out)
			}
		}
	}
}

func TestWithStreaming(t *testing.T) {
	sys := loadTC(t)
	base, err := sys.Run(factorlog.FactoredOptimized, chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	if base.Executor != "materialize" || base.Stream != nil {
		t.Errorf("default run: executor=%q stream=%v", base.Executor, base.Stream)
	}
	sys.WithStreaming(true)
	streamed, err := sys.Run(factorlog.FactoredOptimized, chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Executor != "stream" || streamed.Stream == nil || streamed.Stream.RowsEmitted == 0 {
		t.Fatalf("streamed run: executor=%q stream=%+v", streamed.Executor, streamed.Stream)
	}
	if fmt.Sprint(streamed.Answers) != fmt.Sprint(base.Answers) {
		t.Errorf("answers differ: %v vs %v", streamed.Answers, base.Answers)
	}
	sys.WithStreaming(false)
	again, err := sys.Run(factorlog.FactoredOptimized, chainDB(sys, 10))
	if err != nil {
		t.Fatal(err)
	}
	if again.Executor != "materialize" {
		t.Errorf("after WithStreaming(false): executor=%q", again.Executor)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := factorlog.Load(`t(X) :- e(X).`); !errors.Is(err, factorlog.ErrNoQuery) {
		t.Errorf("want ErrNoQuery, got %v", err)
	}
	if _, err := factorlog.Load(`?- a(X). ?- b(X).`); err == nil {
		t.Error("two queries should be rejected")
	}
	if _, err := factorlog.Load(`t(X :- e(X).`); err == nil {
		t.Error("syntax error should be reported")
	}
}

func TestEmbeddedFacts(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		e(1, 2). e(2, 3).
		?- t(1, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(factorlog.SemiNaive, sys.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestCompareFacade(t *testing.T) {
	sys := loadTC(t)
	results, skipped, err := sys.Compare(factorlog.AllStrategies(), func() *factorlog.DB {
		return chainDB(sys, 15)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if len(skipped) == 0 {
		t.Error("counting/top-down should be skipped on TC3")
	}
	for _, r := range results[1:] {
		if len(r.Answers) != len(results[0].Answers) {
			t.Errorf("%s disagrees", r.Strategy)
		}
	}
}

func TestExplain(t *testing.T) {
	sys := loadTC(t)
	ex, err := sys.Explain(factorlog.Magic)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Program, "m_t_bf") {
		t.Errorf("magic explanation:\n%s", ex.Program)
	}
	ex, err = sys.Explain(factorlog.FactoredOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Class != "selection-pushing" {
		t.Errorf("class = %q", ex.Class)
	}
	if len(ex.Trace) == 0 {
		t.Error("no optimization trace")
	}
	// The final program is the paper's four-rule unary program.
	if n := strings.Count(strings.TrimSpace(ex.Program), "\n") + 1; n != 4 {
		t.Errorf("final program has %d rules:\n%s", n, ex.Program)
	}
}

func TestClassify(t *testing.T) {
	sys := loadTC(t)
	class, err := sys.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if class != "selection-pushing" {
		t.Errorf("class = %q", class)
	}
	// Non-factorable program.
	sg, err := factorlog.Load(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
		?- sg(n, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Classify(); !errors.Is(err, factorlog.ErrNotFactorable) {
		t.Errorf("want ErrNotFactorable, got %v", err)
	}
}

func TestWithConstraints(t *testing.T) {
	src := `
		p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y).
		p(X, Y) :- l2(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r2(Y).
		p(X, Y) :- e(X, Y).
		?- p(5, Y).
	`
	sys, err := factorlog.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Classify(); err == nil {
		t.Fatal("Example 4.4 should not classify without constraints")
	}
	sys2, err := factorlog.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.WithConstraints(`
		r1(Y) :- e(X, Y).
		r2(Y) :- e(X, Y).
	`); err != nil {
		t.Fatal(err)
	}
	class, err := sys2.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if class != "symmetric" {
		t.Errorf("class = %q", class)
	}
}

func TestListProgramThroughFacade(t *testing.T) {
	sys, err := factorlog.Load(`
		pmem(X, [X|T]) :- p(X).
		pmem(X, [H|T]) :- pmem(X, T).
		?- pmem(X, [x1, x2, x3, x4]).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.NewDB()
	db.Fact("p", "x2")
	db.Fact("p", "x4")
	res, err := sys.Run(factorlog.FactoredOptimized, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 || res.Answers[0] != "(x2)" {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestFactTerms(t *testing.T) {
	sys, err := factorlog.Load(`
		head(X) :- holds([X|T]).
		?- head(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.NewDB()
	if err := db.FactTerms("holds", "[a,b,c]"); err != nil {
		t.Fatal(err)
	}
	if db.Count("holds") != 1 {
		t.Error("FactTerms did not insert")
	}
	if err := db.FactTerms("holds", "[a|X]"); err == nil {
		t.Error("non-ground term should be rejected")
	}
	res, err := sys.Run(factorlog.SemiNaive, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != "(a)" {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestWithBudget(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- e(X, Y).
		?- t(0, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.WithBudget(0, 500)
	db := sys.NewDB()
	// Cyclic data: counting diverges; the budget converts that into error.
	db.Fact("e", "0", "1")
	db.Fact("e", "1", "0")
	if _, err := sys.Run(factorlog.Counting, db); err == nil {
		t.Error("budget should stop counting on cyclic data")
	}
}

func TestFormatResult(t *testing.T) {
	sys := loadTC(t)
	res, err := sys.Run(factorlog.Magic, chainDB(sys, 8))
	if err != nil {
		t.Fatal(err)
	}
	s := factorlog.FormatResult(res)
	if !strings.Contains(s, "magic") || !strings.Contains(s, "answers") {
		t.Errorf("format = %q", s)
	}
}

func TestLoadProgramAndAccessors(t *testing.T) {
	u, err := factorlog.Load(tc3Src)
	if err != nil {
		t.Fatal(err)
	}
	sys := factorlog.LoadProgram(u.Program(), u.Query())
	if sys.Query().Pred != "t" {
		t.Errorf("query = %s", sys.Query())
	}
	if len(sys.Program().Rules) != 4 {
		t.Errorf("rules = %d", len(sys.Program().Rules))
	}
	db := sys.NewDB()
	db.Fact("e", "5", "6")
	if db.Engine().Count("e") != 1 {
		t.Error("Engine() accessor broken")
	}
	res, err := sys.Run(factorlog.Magic, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestExplainAllStrategies(t *testing.T) {
	sys := loadTC(t)
	for _, s := range factorlog.AllStrategies() {
		ex, err := sys.Explain(s)
		if s == factorlog.Counting {
			if err == nil {
				t.Error("counting should be unavailable for TC3")
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if ex.Program == "" {
			t.Errorf("%s: empty program", s)
		}
	}
	// Supplementary magic mentions sup predicates.
	ex, err := sys.Explain(factorlog.SupplementaryMagic)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Program, "sup_") {
		t.Errorf("sup-magic explanation:\n%s", ex.Program)
	}
}

func TestPrepareAndContext(t *testing.T) {
	sys := loadTC(t)
	prep, err := sys.Prepare(factorlog.Magic)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Strategy() != factorlog.Magic {
		t.Errorf("strategy = %v", prep.Strategy())
	}
	// A prepared plan runs repeatedly against fresh DBs.
	for i := 0; i < 2; i++ {
		res, err := prep.Run(context.Background(), chainDB(sys, 10))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != 5 {
			t.Errorf("run %d: answers = %v", i, res.Answers)
		}
	}
	// A canceled context surfaces the typed error, via Prepared.Run and
	// via WithContext on a plain Run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.Run(ctx, chainDB(sys, 10)); !errors.Is(err, factorlog.ErrCanceled) {
		t.Errorf("Prepared.Run: want ErrCanceled, got %v", err)
	}
	if _, err := sys.WithContext(ctx).Run(factorlog.SemiNaive, chainDB(sys, 10)); !errors.Is(err, factorlog.ErrCanceled) {
		t.Errorf("WithContext Run: want ErrCanceled, got %v", err)
	}
}

// ExampleLoad demonstrates the quickstart flow.
func ExampleLoad() {
	sys, err := factorlog.Load(`
		t(X, Y) :- t(X, W), t(W, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- t(X, W), e(W, Y).
		t(X, Y) :- e(X, Y).
		?- t(5, Y).
	`)
	if err != nil {
		panic(err)
	}
	db := sys.NewDB()
	db.Fact("e", "5", "6")
	db.Fact("e", "6", "7")
	res, err := sys.Run(factorlog.FactoredOptimized, db)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Answers)
	// Output: [(6) (7)]
}

func TestMaterializedFacade(t *testing.T) {
	src := `
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		e(1, 2). e(2, 3).
		?- t(1, Y).
	`
	for _, strat := range []factorlog.Strategy{factorlog.SemiNaive, factorlog.Magic, factorlog.Factored} {
		sys, err := factorlog.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Materialize(strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if got, _ := m.Answers(); fmt.Sprint(got) != "[(2) (3)]" {
			t.Fatalf("%v initial answers = %v", strat, got)
		}
		if epoch, err := m.Assert("e(3,4)."); err != nil || epoch != 1 {
			t.Fatalf("%v assert: epoch=%d err=%v", strat, epoch, err)
		}
		if got, _ := m.Answers(); fmt.Sprint(got) != "[(2) (3) (4)]" {
			t.Fatalf("%v after assert = %v", strat, got)
		}
		if epoch, err := m.Retract("e(1,2)"); err != nil || epoch != 2 {
			t.Fatalf("%v retract: epoch=%d err=%v", strat, epoch, err)
		}
		if got, _ := m.Answers(); len(got) != 0 {
			t.Fatalf("%v after retract = %v, want none", strat, got)
		}
		if epoch, err := m.Apply([]string{"e(1,3)"}, nil); err != nil || epoch != 3 {
			t.Fatalf("%v apply: epoch=%d err=%v", strat, epoch, err)
		}
		if got, _ := m.Answers(); fmt.Sprint(got) != "[(3) (4)]" {
			t.Fatalf("%v after apply = %v", strat, got)
		}
		if m.BaseCount() != 3 { // e(2,3), e(3,4), e(1,3)
			t.Fatalf("%v base count = %d, want 3", strat, m.BaseCount())
		}
	}
}

func TestMaterializedFacadeErrors(t *testing.T) {
	sys, err := factorlog.Load("t(X,Y) :- e(X,Y). e(1,2). ?- t(1,Y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Materialize(factorlog.TopDown); err == nil {
		t.Error("TopDown materialize should fail")
	}
	m, err := sys.Materialize(factorlog.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"e(X, 1)", "e(1,2,3)", "not an atom ("} {
		if _, err := m.Assert(bad); !errors.Is(err, factorlog.ErrMutation) {
			t.Errorf("Assert(%q) err = %v, want ErrMutation", bad, err)
		}
	}
	if m.Epoch() != 0 {
		t.Errorf("epoch after rejected batches = %d, want 0", m.Epoch())
	}
}
