package topdown

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// TestResolversSkipDeletedFacts: a fact removed with Relation.Delete keeps
// its arena row, and neither resolver may prove anything from it.
func TestResolversSkipDeletedFacts(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
	db := chainDB(3) // e(1,2), e(2,3)
	if !db.Lookup("e").Delete([]engine.Val{db.Store.Int(2), db.Store.Int(3)}) {
		t.Fatal("e(2,3) not deleted")
	}
	query := parser.MustParseAtom("t(1, Y)")
	plain, err := Solve(p, db, query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := SolveTabled(p, db, query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]map[string]bool{"SLD": plain.AnswerSet(), "tabled": tab.AnswerSet()} {
		if len(got) != 1 || !got["t(1,2)"] {
			t.Errorf("%s answers = %v, want only t(1,2)", name, got)
		}
	}
}

// TestTabledStepsFlatInEDBSize: a tabled query near the end of a chain
// touches the same few rows however long the chain is — each EDB goal is
// an index probe, not a scan of the relation. Goals, table entries and
// rounds are those of the scanning evaluator.
func TestTabledStepsFlatInEDBSize(t *testing.T) {
	for _, c := range []struct {
		src                    string
		goals, answers, rounds int
	}{
		{`t(X, Y) :- e(X, Y).
		  t(X, Y) :- e(X, W), t(W, Y).`, 9, 36, 2},
		{`t(X, Y) :- e(X, Y).
		  t(X, Y) :- t(X, W), e(W, Y).`, 1, 8, 2},
	} {
		p := parser.MustParseProgram(c.src)
		stats := map[int]TabledStats{}
		for _, n := range []int{100, 4000} {
			res, err := SolveTabled(p, chainDB(n), parser.MustParseAtom(fmt.Sprintf("t(%d, Y)", n-8)), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) != 8 {
				t.Fatalf("n=%d: %d answers, want 8", n, len(res.Answers))
			}
			stats[n] = res.Stats
		}
		if stats[100] != stats[4000] {
			t.Errorf("%s\nstats grow with the EDB: n=100 %+v, n=4000 %+v", c.src, stats[100], stats[4000])
		}
		if got := stats[4000]; got.Goals != c.goals || got.Answers != c.answers || got.Rounds != c.rounds {
			t.Errorf("%s\nstats %+v, want goals %d answers %d rounds %d", c.src, got, c.goals, c.answers, c.rounds)
		}
	}
}

// TestTabledMatchesSemiNaive checks the EDB matcher's edge cases against
// bottom-up evaluation. The tabled side runs over a DB that has had
// deletions (and one re-insertion, so a dead and a live row hold the same
// tuple); the reference DB holds the live facts alone.
func TestTabledMatchesSemiNaive(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		loop(X) :- e(X, X).
		tagged(Y) :- p(f(1), Y).
		via(X, Y) :- p(X, Y).
		ghost(Y) :- e(zzz, Y).
		pairs(X, Y) :- e(X, Y).
	`)
	rng := rand.New(rand.NewSource(1))
	var live, doomed []string
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		f := fmt.Sprintf("e(%d,%d).", rng.Intn(12), rng.Intn(12))
		if seen[f] {
			continue
		}
		seen[f] = true
		if i%5 == 0 {
			doomed = append(doomed, f)
		} else {
			live = append(live, f)
		}
	}
	live = append(live, "e(3,3).", "p(f(1),a).", "p(f(1),b).", "p(f(2),c).", "p(g(1),d).", "p(1,e).")
	doomed = append(doomed, "e(40,40).", "p(f(1),gone).")

	withDeletes := loadDB(t, append(append([]string(nil), live...), doomed...))
	for i, f := range doomed {
		a := parser.MustParseAtom(strings.TrimSuffix(f, "."))
		tuple := make([]engine.Val, len(a.Args))
		for j, arg := range a.Args {
			tuple[j] = withDeletes.Store.MustFromAST(arg)
		}
		rel := withDeletes.Lookup(a.Pred)
		if !rel.Delete(tuple) {
			t.Fatalf("%s not deleted", f)
		}
		if i == 0 { // back, in a new row behind its dead one
			rel.Insert(tuple)
			live = append(live, f)
		}
	}
	reference := loadDB(t, live)
	if _, err := engine.Eval(p, reference, engine.Options{Strategy: engine.SemiNaive}); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{
		"t(3, Y)",       // ground probe through the recursion
		"t(X, Y)",       // all-free: the scan path
		"t(X, X)",       // repeated variable
		"t(99, Y)",      // constant never interned
		"loop(X)",       // repeated variable inside the rule body
		"tagged(Y)",     // ground compound in the rule body
		"via(f(2), Y)",  // ground compound from the query
		"via(f(9), Y)",  // compound never interned
		"via(X, Y)",     // compound and constant keys, scanned
		"ghost(Y)",      // rule constant never interned
		"pairs(40, 40)", // fully ground, only a dead row matches
		"pairs(X, 4)",   // probe on the second column
	} {
		query := parser.MustParseAtom(q)
		res, err := SolveTabled(p, withDeletes, query, Options{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got := sortedKeys(res.AnswerSet())
		want := matching(reference, query)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: tabled %v, semi-naive %v", q, got, want)
		}
	}
}

// TestTabledProbesSharedImage runs tabled queries on the evaluation DBs of
// one base image version from many goroutines at once: the first to need
// an index builds it on the image's frozen relation, the rest probe it,
// and the index stays on the image for later requests.
func TestTabledProbesSharedImage(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
	var facts []ast.Atom
	for i := 1; i < 200; i++ {
		facts = append(facts, parser.MustParseAtom(fmt.Sprintf("e(%d, %d)", i, i+1)))
	}
	base, err := engine.NewBase(facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := base.Current()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := 150 + w
			res, err := SolveTabled(p, v.EvalDB(), parser.MustParseAtom(fmt.Sprintf("t(%d, Y)", from)), Options{})
			if err != nil {
				errs <- err
				return
			}
			if got, want := len(res.Answers), 200-from; got != want {
				errs <- fmt.Errorf("t(%d,Y): %d answers, want %d", from, got, want)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !v.Relation("e").HasIndex([]int{0}) {
		t.Error("the image's e relation kept no index on its first column")
	}
}

func loadDB(t *testing.T, facts []string) *engine.DB {
	t.Helper()
	prog, err := parser.Parse(strings.Join(facts, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDB()
	if err := engine.LoadFacts(db, prog.Facts); err != nil {
		t.Fatal(err)
	}
	return db
}

// matching renders the live facts of db that are instances of query.
func matching(db *engine.DB, query ast.Atom) []string {
	set := map[string]bool{}
	if rel := db.Lookup(query.Pred); rel != nil {
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			if rel.Round(pos) < 0 {
				continue
			}
			args := make([]ast.Term, rel.Arity())
			for i, v := range rel.Tuple(pos) {
				args[i] = db.Store.ToAST(v)
			}
			fact := ast.Atom{Pred: query.Pred, Args: args}
			if _, ok := ast.UnifyAtoms(query, fact, nil); ok {
				set[fact.String()] = true
			}
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTabledWideRelation: ground arguments past engine.IndexableColumns
// are matched by unification, not by an index probe, on a relation wider
// than the index key.
func TestTabledWideRelation(t *testing.T) {
	const arity = engine.IndexableColumns + 2
	fact := func(a, b string) string {
		args := make([]string, arity)
		for i := range args {
			args[i] = "0"
		}
		args[1], args[arity-2], args[arity-1] = a, a, b
		return "w(" + strings.Join(args, ",") + ")."
	}
	db := loadDB(t, []string{fact("1", "2"), fact("2", "1"), fact("3", "3")})
	vars := make([]string, arity)
	for i := range vars {
		vars[i] = fmt.Sprintf("X%d", i)
	}
	head := strings.Join(vars, ", ")
	p := parser.MustParseProgram(fmt.Sprintf("q(%s) :- w(%s).", head, head))
	for _, bind := range []map[int]string{{arity - 1: "1"}, {arity - 2: "1"}, {1: "3", arity - 1: "3"}, {arity - 2: "2", arity - 1: "2"}} {
		args := append([]string(nil), vars...)
		for i, c := range bind {
			args[i] = c
		}
		query := parser.MustParseAtom("q(" + strings.Join(args, ", ") + ")")
		plain, err := Solve(p, db, query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := SolveTabled(p, db, query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, want := sortedKeys(tab.AnswerSet()), sortedKeys(plain.AnswerSet())
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%v: tabled %v, SLD %v", bind, got, want)
		}
	}
}
