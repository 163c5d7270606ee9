package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// referenceAnswers is the answer path as it stood before answers were
// rendered into one arena: engine.Answers matches the rows, each value is
// rendered on its own with Store.String, the projections go into a map,
// and sort.Strings orders the keys.
func referenceAnswers(t *testing.T, db *engine.DB, query ast.Atom, cols []int) []string {
	t.Helper()
	tuples, err := engine.Answers(db, query)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, tup := range tuples {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = db.Store.String(tup[c])
		}
		set["("+strings.Join(parts, ",")+")"] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// answerSource is the atom and the columns a bottom-up strategy's answers
// are read from: the whole tuple of a rewritten answer predicate, or the
// query's free positions of the source predicate.
func answerSource(t *testing.T, pl *Pipeline, s Strategy) (ast.Atom, []int) {
	t.Helper()
	_, query, transformed, err := pl.MaterializedProgram(s)
	if err != nil {
		t.Fatal(err)
	}
	if !transformed {
		return pl.Query, pl.freePositions()
	}
	cols := make([]int, len(query.Args))
	for i := range cols {
		cols[i] = i
	}
	return query, cols
}

// answerCases is every testdata program with a ?- query (swept over its
// fact constants), the benchmark's rules, and a program whose answers are
// projections with repeated variables, compounds, lists and constants that
// print quoted — ('x,y',z) and (x,'y,z') must stay two answers.
func answerCases(t *testing.T) []templateCase {
	cases := templateCases(t)
	shapes := templateCase{name: "shapes", prog: parser.MustParseProgram(`
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- e(X, Y).
c(X, f(X, Y), [X, Y]) :- e(X, Y).
`)}
	shapes.facts = mustFacts(t, `e(5,6). e(6,5). e(6,7). e(7,'a b'). e('x,y',z). e(x,'y,z').
e(1,[]). e(2,[a,'B'|c]). e('It''s',g(h,[1,2])). e('',x).`)
	for _, q := range []string{
		"t(X,X)", "t(5,Y)", "t(X,Y)", "t(X,'a b')", "c(X,F,L)", "c(5,F,L)",
		"c(X,f(X,Y),L)", "c(X,F,[X,7])", "c('x,y',F,L)",
	} {
		shapes.queries = append(shapes.queries, parser.MustParseAtom(q))
	}
	return append(cases, shapes)
}

// TestAnswerStringsMatchReference: for every case, query and strategy that
// compiles, SortedAnswers of a run and ProjectSorted over its database
// equal the reference path over the same database; tabled answers, which
// render through ast.Term, equal the semi-naive reference.
func TestAnswerStringsMatchReference(t *testing.T) {
	budget := engine.Options{MaxFacts: 20_000}
	runs, proofs := 0, 0
	for _, tc := range answerCases(t) {
		base, err := engine.NewBase(tc.facts, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for qi, q := range tc.queries {
			pl := New(tc.prog, q).WithConstraints(tc.constraints)
			var want []string
			for _, s := range AllStrategies() {
				where := fmt.Sprintf("%s %s %s", tc.name, q, s)
				if !MaterializableStrategy(s) {
					// One goal-directed proof per case, tabled: SLD renders
					// through the same runTopDown, but dives to its budget on
					// these recursive programs.
					if s != Tabled || qi > 0 || want == nil {
						continue
					}
					res, err := pl.Run(s, base.Current().EvalDB(), budget)
					if err != nil {
						continue
					}
					proofs++
					if got := SortedAnswers(res); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %q, semi-naive reference %q", where, got, want)
					}
					continue
				}
				if pl.Compile(s) != nil {
					continue
				}
				db := base.Current().EvalDB()
				res, err := pl.Run(s, db, budget)
				if err != nil {
					continue
				}
				runs++
				query, cols := answerSource(t, pl, s)
				ref := referenceAnswers(t, db, query, cols)
				if got := SortedAnswers(res); !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: %q, reference %q", where, got, ref)
				}
				_, aq, transformed, _ := pl.MaterializedProgram(s)
				if got, err := pl.ProjectSorted(db, aq, transformed); err != nil || !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: sorted read %q (%v), reference %q", where, got, err, ref)
				}
				if s == SemiNaive {
					want = ref
				}
			}
		}
	}
	if runs < 400 || proofs < 10 {
		t.Errorf("%d bottom-up runs and %d tabled proofs compared, want at least 400 and 10", runs, proofs)
	}
}

// TestAnswerStringsSkipDeadRows: materializations maintained through random
// assert/retract batches hold dead rows; every read's sorted answers equal
// the reference read of the entry's own database.
func TestAnswerStringsSkipDeadRows(t *testing.T) {
	prog := parser.MustParseProgram(`
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- e(X, Y).
two(X, Z) :- e(X, Y), e(Y, Z).
`)
	// Edges run forward only: counting diverges on a cycle.
	rng := rand.New(rand.NewSource(1))
	edge := func() ast.Atom {
		from := rng.Intn(9)
		return parser.MustParseAtom(fmt.Sprintf("e(%d,%d)", from, from+1+rng.Intn(9-from)))
	}
	var facts []ast.Atom
	for i := 0; i < 30; i++ {
		facts = append(facts, edge())
	}
	m, err := NewMaterializer(prog, nil, facts, nil,
		MaterializerOptions{Engine: engine.MaterializeOptions{MaxFacts: 20_000}})
	if err != nil {
		t.Fatal(err)
	}
	queries := []ast.Atom{
		parser.MustParseAtom("t(1,Y)"), parser.MustParseAtom("t(X,X)"),
		parser.MustParseAtom("two(X,Z)"), parser.MustParseAtom("two(3,Z)"),
	}
	dead := 0
	for batch := 0; batch < 40; batch++ {
		for _, q := range queries {
			for _, s := range AllStrategies() {
				if !MaterializableStrategy(s) {
					continue
				}
				res, err := m.Read(context.Background(), q, s)
				if err != nil {
					continue // a rewrite that does not apply to q
				}
				e := m.entries[matKey{q.CanonicalKey(), s}]
				db := e.mat.DB()
				query, cols := answerSource(t, e.pl, s)
				if rel := db.Lookup(query.Pred); rel != nil && rel.Len() > rel.Live() {
					dead++
				}
				if ref := referenceAnswers(t, db, query, cols); !reflect.DeepEqual(res.Sorted, ref) {
					t.Fatalf("batch %d %s %s (%s): %q, reference %q", batch, q, s, res.Kind, res.Sorted, ref)
				}
			}
		}
		var assert, retract []ast.Atom
		for i := 0; i < 3; i++ {
			assert = append(assert, edge())
			retract = append(retract, facts[rng.Intn(len(facts))])
		}
		facts = append(facts, assert...)
		if _, err := m.Apply(assert, retract); err != nil {
			t.Fatal(err)
		}
	}
	if dead == 0 {
		t.Error("no served answer relation held a dead row")
	}
}
