package reduce_test

import (
	"strings"
	"testing"

	"factorlog/internal/core"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/reduce"
)

// TestExample51 reduces the program of Example 5.1 with respect to its
// static first argument; the reduced program is covered by the theorems.
func TestExample51(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).
		p(X, Y, Z) :- exit(X, Y, Z).
	`)
	query := parser.MustParseAtom("p(5, 6, U)")

	static, err := reduce.StaticPositions(p, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(static) != 1 || static[0] != 0 {
		t.Fatalf("static positions = %v, want [0]", static)
	}

	red, rq, err := reduce.Reduce(p, query, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := parser.MustParseProgram(`
		p_r0(Y, Z) :- a(5), p_r0(Y, W), d(W, U), p_r0(U, Z).
		p_r0(Y, Z) :- exit(5, Y, Z).
	`)
	if red.Canonical() != want.Canonical() {
		t.Errorf("reduced:\n%s\nwant:\n%s", red, want)
	}
	if rq.String() != "p_r0(6,U)" {
		t.Errorf("reduced query = %s", rq)
	}

	// Before reduction the theorems do not apply; after, they do.
	if _, err := core.AnalyzeQuery(p, query); err == nil {
		a, _ := core.AnalyzeQuery(p, query)
		if core.Classify(a) != core.ClassUnknown {
			t.Error("Example 5.1 should not classify before reduction")
		}
	}
	a, err := core.AnalyzeQuery(red, rq)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Classify(a); got == core.ClassUnknown {
		t.Errorf("reduced Example 5.1 should classify; summary:\n%s", a.Summary())
	}
}

// TestExample52 reduces the pseudo-left-linear program of Example 5.2 into
// a genuinely left-linear one.
func TestExample52(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).
		p(X, Y, Z) :- exit(X, Y, Z).
	`)
	query := parser.MustParseAtom("p(5, 6, U)")
	red, rq, err := reduce.Reduce(p, query, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := parser.MustParseProgram(`
		p_r0(Y, Z) :- p_r0(Y, W), d(W, 5, Z).
		p_r0(Y, Z) :- exit(5, Y, Z).
	`)
	if red.Canonical() != want.Canonical() {
		t.Errorf("reduced:\n%s\nwant:\n%s", red, want)
	}
	a, err := core.AnalyzeQuery(red, rq)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rules[0].Shape != core.ShapeLeftLinear {
		t.Errorf("reduced rule shape = %v (%s)", a.Rules[0].Shape, a.Rules[0].Reason)
	}
	if got := core.Classify(a); got == core.ClassUnknown {
		t.Error("reduced Example 5.2 should classify")
	}
}

// TestLemma51Equivalence: reduction preserves the query answers (Lemma 5.1)
// on concrete EDBs.
func TestLemma51Equivalence(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).
		p(X, Y, Z) :- exit(X, Y, Z).
	`)
	query := parser.MustParseAtom("p(5, 6, U)")
	red, rq, err := reduce.Reduce(p, query, 0)
	if err != nil {
		t.Fatal(err)
	}

	load := func() *engine.DB {
		db := engine.NewDB()
		facts, err := parser.Parse(`
			exit(5, 6, 1). exit(5, 7, 2). exit(4, 6, 3).
			d(1, 5, 10). d(10, 5, 11). d(2, 5, 12). d(3, 4, 13). d(1, 4, 14).
		`)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.LoadFacts(db, facts.Facts); err != nil {
			t.Fatal(err)
		}
		return db
	}

	dbO := load()
	if _, err := engine.Eval(p, dbO, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want, _ := engine.AnswerSet(dbO, query)

	dbR := load()
	if _, err := engine.Eval(red, dbR, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	got, _ := engine.AnswerSet(dbR, rq)

	// want tuples are (5,6,u); got are (6,u): compare the u sets.
	if len(got) != len(want) {
		t.Errorf("answers: reduced %d vs original %d\n%v\n%v", len(got), len(want), got, want)
	}
	for a := range got {
		if !want["(5,"+a[1:]] {
			t.Errorf("reduced answer %s missing from original", a)
		}
	}
}

func TestStaticPositionsNegative(t *testing.T) {
	// Shifting variable: position 0 of the body occurrence differs.
	p := parser.MustParseProgram(`
		p(X, Y) :- p(Y, X).
		p(X, Y) :- e(X, Y).
	`)
	static, err := reduce.StaticPositions(p, parser.MustParseAtom("p(5, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(static) != 0 {
		t.Errorf("static = %v, want none", static)
	}
}

func TestStaticRequiresGroundQueryArg(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- p(X, W), e(W, Y).
		p(X, Y) :- e(X, Y).
	`)
	static, err := reduce.StaticPositions(p, parser.MustParseAtom("p(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(static) != 0 {
		t.Errorf("free query position reported static: %v", static)
	}
}

func TestReduceErrors(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- p(X, W), e(W, Y).
		p(X, Y) :- e(X, Y).
	`)
	// Position 1 is free, not static.
	if _, _, err := reduce.Reduce(p, parser.MustParseAtom("p(5, Y)"), 1); err == nil {
		t.Error("non-static position accepted")
	}
	// Non-unit program.
	p2 := parser.MustParseProgram(`
		p(X) :- q(X).
		q(X) :- e(X).
	`)
	if _, err := reduce.StaticPositions(p2, parser.MustParseAtom("p(5)")); err == nil {
		t.Error("non-unit program accepted")
	}
}

func TestReduceAll(t *testing.T) {
	// Two static positions.
	p := parser.MustParseProgram(`
		p(A, B, Y) :- p(A, B, W), e(W, Y).
		p(A, B, Y) :- exit(A, B, Y).
	`)
	red, rq, steps, err := reduce.ReduceAll(p, parser.MustParseAtom("p(1, 2, U)"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, st := range steps {
		lines = append(lines, st.String())
	}
	if got := strings.Join(lines, "\n"); got != "static-argument reduction (Def. 5.2): p/3 → p_r0/2 at position 0\n"+
		"static-argument reduction (Def. 5.2): p_r0/2 → p_r0_r0/1 at position 0" {
		t.Errorf("steps:\n%s", got)
	}
	if rq.Arity() != 1 {
		t.Errorf("reduced query = %s, want arity 1", rq)
	}
	arities, _ := red.PredArities()
	if arities[rq.Pred] != 1 {
		t.Errorf("reduced pred arity = %d", arities[rq.Pred])
	}
	// No static positions: unchanged.
	p2 := parser.MustParseProgram(`
		p(X, Y) :- p(Y, X).
		p(X, Y) :- e(X, Y).
	`)
	q2 := parser.MustParseAtom("p(5, Y)")
	same, sameQ, steps, err := reduce.ReduceAll(p2, q2)
	if err != nil {
		t.Fatal(err)
	}
	if same != p2 || !sameQ.Equal(q2) || len(steps) != 0 {
		t.Error("no-op ReduceAll should return inputs")
	}
}
