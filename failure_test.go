package factorlog_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"factorlog"
)

// Failure-injection tests: malformed programs, out-of-class programs,
// divergent strategies, and odd-but-legal inputs must error cleanly (typed
// where promised) and never panic.

func TestMalformedPrograms(t *testing.T) {
	cases := []string{
		``,                                      // empty: no query
		`?- .`,                                  // empty query
		`t(X) :- .`,                             // empty body
		`t(X) :- e(X,).`,                        // trailing comma
		`t(X,Y) :- e(X,Y)`,                      // missing final dot
		`t(X,Y) :- e(X,Y). ?- t(1,Y).` + "\x01", // junk byte
	}
	for _, src := range cases {
		if _, err := factorlog.Load(src); err == nil {
			t.Errorf("Load(%q) accepted", src)
		}
	}
}

func TestUnsafeRuleSurfacesAtRun(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X, Z) :- e(X, Y).
		?- t(1, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(factorlog.SemiNaive, sys.NewDB())
	if err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Errorf("unsafe rule: %v", err)
	}
}

func TestArityConflictSurfaces(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X) :- e(X, Y).
		t(X, Y) :- e(X, Y).
		?- t(1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(factorlog.SemiNaive, sys.NewDB()); err == nil {
		t.Error("arity conflict not reported")
	}
}

func TestQueryOnEDBPredicate(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X) :- e(X).
		?- e(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Bottom-up strategies answer EDB queries fine; transformation-based
	// ones reject (the query predicate has no rules).
	db := sys.NewDB()
	db.Fact("e", "a")
	res, err := sys.Run(factorlog.SemiNaive, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Errorf("answers = %v", res.Answers)
	}
	if _, err := sys.Explain(factorlog.Magic); err == nil {
		t.Error("magic on an EDB query should fail")
	}
}

func TestNotFactorableIsTyped(t *testing.T) {
	sys, err := factorlog.Load(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
		?- sg(a, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []factorlog.Strategy{factorlog.Factored, factorlog.FactoredOptimized} {
		if _, err := sys.Run(s, sys.NewDB()); !errors.Is(err, factorlog.ErrNotFactorable) {
			t.Errorf("%s: want ErrNotFactorable, got %v", s, err)
		}
	}
}

func TestDivergentFunctionSymbolProgram(t *testing.T) {
	sys, err := factorlog.Load(`
		nat(z).
		nat(s(X)) :- nat(X).
		?- nat(W).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys.WithBudget(0, 100)
	_, err = sys.Run(factorlog.SemiNaive, sys.NewDB())
	if err == nil {
		t.Fatal("divergent program not stopped by budget")
	}
	// Budget stops are typed, so callers can tell them from real failures.
	if !errors.Is(err, factorlog.ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}

	// The iteration budget is checked between fixpoint rounds, so it can't
	// stop nat/1 (which cascades inside round 0 — the fact budget's job);
	// exercise it on a recursion that needs many rounds instead.
	tc, err := factorlog.Load(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		?- t(1, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := tc.NewDB()
	for i := 0; i < 50; i++ {
		db.Fact("e", strconv.Itoa(i), strconv.Itoa(i+1))
	}
	tc.WithBudget(3, 0)
	if _, err := tc.Run(factorlog.SemiNaive, db); !errors.Is(err, factorlog.ErrBudgetExceeded) {
		t.Errorf("iteration budget: want ErrBudgetExceeded, got %v", err)
	}
}

func TestBadConstraints(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X, Y) :- t(X, W), e(W, Y).
		t(X, Y) :- e(X, Y).
		?- t(1, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WithConstraints(`r(Y, Z) :- e(X, Y).`); err == nil {
		t.Error("non-full TGD accepted")
	}
	if _, err := sys.WithConstraints(`garbage(`); err == nil {
		t.Error("unparsable constraints accepted")
	}
}

func TestDeepListQuery(t *testing.T) {
	// A long query list must not blow the stack anywhere in the pipeline.
	var b strings.Builder
	b.WriteString("pmem(X, [X|T]) :- p(X).\npmem(X, [H|T]) :- pmem(X, T).\n?- pmem(X, [")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("k")
		b.WriteString(strings.Repeat("x", 1)) // k x -> kx
	}
	b.WriteString("]).")
	sys, err := factorlog.Load(b.String())
	if err != nil {
		t.Fatal(err)
	}
	db := sys.NewDB()
	db.Fact("p", "kx")
	res, err := sys.Run(factorlog.FactoredOptimized, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestZeroArityPredicates(t *testing.T) {
	sys, err := factorlog.Load(`
		ok :- cond.
		?- ok.
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.NewDB()
	db.Fact("cond")
	res, err := sys.Run(factorlog.SemiNaive, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != "()" {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestUnicodeConstants(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X, Y) :- e(X, Y).
		?- t('京都', Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.NewDB()
	db.Fact("e", "京都", "大阪")
	res, err := sys.Run(factorlog.Magic, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != "('大阪')" {
		t.Errorf("answers = %v", res.Answers)
	}
}

func TestAllStrategiesOnEmptyEDB(t *testing.T) {
	sys, err := factorlog.Load(`
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- e(X, Y).
		?- t(1, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range factorlog.AllStrategies() {
		res, err := sys.Run(s, sys.NewDB())
		if err != nil {
			t.Errorf("%s on empty EDB: %v", s, err)
			continue
		}
		if len(res.Answers) != 0 {
			t.Errorf("%s invented answers: %v", s, res.Answers)
		}
	}
}
