package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/workload"
)

// digraphRules is the benchmark's closure over its random digraph g.
const digraphRules = "r(X,Y) :- g(X,Y).\nr(X,Y) :- g(X,Z), r(Z,Y).\n"

// reachBack answers r(X,k) by breadth-first search backwards over g's rows:
// every node with a path of one or more edges to k.
func reachBack(t *testing.T, db *engine.DB, k string) []string {
	t.Helper()
	rel := db.Lookup("g")
	pred := map[string][]string{}
	for pos := 0; pos < rel.Len(); pos++ {
		tup := rel.Tuple(int32(pos))
		from, to := db.Store.String(tup[0]), db.Store.String(tup[1])
		pred[to] = append(pred[to], from)
	}
	seen := map[string]bool{}
	frontier := []string{k}
	var out []string
	for len(frontier) > 0 {
		var next []string
		for _, n := range frontier {
			for _, p := range pred[n] {
				if !seen[p] {
					seen[p] = true
					out = append(out, "("+p+")")
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return out
}

// TestReducedClosureIntoConstant: a closure into a constant, r(X,k), has a
// static bound position (Def. 5.1), so factoring serves the unary program of
// Lemma 5.1 where magic sets keeps binary relations. Over the benchmark's
// digraph, for every k, factored+opt answers like magic and a BFS, keeps
// every IDB relation unary, and derives at most a third of magic's facts
// with at most a third of its inferences.
func TestReducedClosureIntoConstant(t *testing.T) {
	db := engine.NewDB()
	workload.RandomDigraph(db, "g", 1000, 3000, 1)
	prog := parser.MustParseProgram(digraphRules)
	for k := 17; k < 1000; k += 41 { // 25 constants
		q := mustAtom(t, fmt.Sprintf("r(X,%d)", k))
		pl := New(prog, q)
		mag, err := pl.Run(Magic, db.Clone(), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		red, err := pl.Run(FactoredOptimized, db.Clone(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := reachBack(t, db, fmt.Sprint(k))
		if ok, diff := SameAnswers(mag, red); !ok || len(red.Answers) != len(want) {
			t.Errorf("%s: %s; %d answers, BFS finds %d", q, diff, len(red.Answers), len(want))
		}
		for _, a := range want {
			if !red.Answers[a] {
				t.Errorf("%s: BFS answer %s missing", q, a)
			}
		}
		if red.MaxIDBArity != 1 {
			t.Errorf("%s: max IDB arity %d, want 1\n%s", q, red.MaxIDBArity, red.Program)
		}
		if 3*red.Facts > mag.Facts || 3*red.Inferences > mag.Inferences {
			t.Errorf("%s: %d facts, %d inferences; magic %d, %d — want at most a third of each",
				q, red.Facts, red.Inferences, mag.Facts, mag.Inferences)
		}
	}
}

// TestAutoServesReducedClosure: over the benchmark's rules and its seed-1
// digraph, the Auto planner picks factored+opt for r(X,k), and the
// materialization that serves it holds one IDB relation, of arity 1.
func TestAutoServesReducedClosure(t *testing.T) {
	prog := parser.MustParseProgram(benchRules(t))
	db := engine.NewDB()
	workload.RandomDigraph(db, "g", 1000, 3000, 1)
	rel := db.Lookup("g")
	var base []ast.Atom
	for pos := 0; pos < rel.Len(); pos++ {
		tup := rel.Tuple(int32(pos))
		base = append(base, ast.Atom{Pred: "g", Args: []ast.Term{db.Store.ToAST(tup[0]), db.Store.ToAST(tup[1])}})
	}
	cache := NewPlanCache()
	mat, err := NewMaterializer(prog, nil, base, cache, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planner := NewAutoPlanner(prog, nil, cache, SnapshotSource(mat), AutoPolicy{})
	for _, k := range []int{17, 423, 998} {
		q := mustAtom(t, fmt.Sprintf("r(X,%d)", k))
		pick, err := planner.Choose(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if pick.Strategy != FactoredOptimized {
			t.Fatalf("%s: auto picked %s, want factored+opt\n%s", q, pick.Strategy, candidateDump(pick.Candidates))
		}
		res, err := mat.Serve(context.Background(), q, pick.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		if want := reachBack(t, db, fmt.Sprint(k)); len(res.Answers) != len(want) {
			t.Errorf("%s: %d answers, BFS finds %d", q, len(res.Answers), len(want))
		}
		e := mat.entries[matKey{q.CanonicalKey(), pick.Strategy}]
		prog, _, _, err := e.pl.MaterializedProgram(pick.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		idb := prog.IDBPreds()
		if len(idb) != 1 || !idb["r_r1"] {
			t.Fatalf("%s: materialized IDB %v, want r_r1 alone\n%s", q, idb, prog)
		}
		if got := e.mat.DB().Lookup("r_r1"); got == nil || got.Arity() != 1 {
			t.Errorf("%s: r_r1 not materialized at arity 1", q)
		}
	}
}

// The two programs of E6 (§5): outside the factorable classes as written,
// inside after reducing their static first argument. d is the only EDB
// relation whose arity differs between them; facts draws one random EDB.
var e6Programs = []struct {
	name, rules string
	facts       func(r *rand.Rand, b *strings.Builder)
}{
	{"Example 5.1", "p(X,Y,Z) :- a(X), p(X,Y,W), d(W,U), p(X,U,Z).\np(X,Y,Z) :- exit(X,Y,Z).\n",
		func(r *rand.Rand, b *strings.Builder) { fmt.Fprintf(b, "d(%d,%d). ", r.Intn(9), 5+r.Intn(3)) }},
	{"Example 5.2", "p(X,Y,Z) :- p(X,Y,W), d(W,X,Z).\np(X,Y,Z) :- exit(X,Y,Z).\n",
		func(r *rand.Rand, b *strings.Builder) {
			fmt.Fprintf(b, "d(%d,%d,%d). ", r.Intn(9), 4+r.Intn(2), r.Intn(9))
		}},
}

// TestE6ProgramsCompileFactored: the factoring strategies now compile E6's
// p(5,6,U) through static-argument reduction, and answer like naive on E6's
// EDB (Example 5.2's, which E6 evaluates) and on random ones.
func TestE6ProgramsCompileFactored(t *testing.T) {
	q := mustAtom(t, "p(5,6,U)")
	e6EDB := "exit(5,6,1). exit(5,7,2). d(1,5,10). d(10,5,11). d(2,5,12).\n"
	for _, ex := range e6Programs {
		prog := parser.MustParseProgram(ex.rules)
		pl := New(prog, q)
		for _, s := range []Strategy{Factored, FactoredOptimized} {
			info, err := pl.Explain(s)
			if err != nil {
				t.Fatalf("%s %s: %v", ex.name, s, err)
			}
			if !strings.Contains(strings.Join(info.Reductions, "\n"), "static-argument reduction (Def. 5.2): p/3 → p_r0/2 at position 0") {
				t.Errorf("%s %s: reductions %q", ex.name, s, info.Reductions)
			}
		}
		var edbs []string
		if ex.name == "Example 5.2" {
			edbs = append(edbs, e6EDB)
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			var b strings.Builder
			b.WriteString("a(5). ")
			for j := 0; j < 12; j++ {
				fmt.Fprintf(&b, "exit(%d,%d,%d). ", 4+r.Intn(2), 5+r.Intn(3), r.Intn(9))
				ex.facts(r, &b)
			}
			edbs = append(edbs, b.String())
		}
		answered := 0
		for i, src := range edbs {
			facts := mustFacts(t, src)
			load := func() *engine.DB {
				db := engine.NewDB()
				if err := engine.LoadFacts(db, facts); err != nil {
					t.Fatal(err)
				}
				return db
			}
			want, err := pl.Run(Naive, load(), engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Answers) > 1 {
				answered++
			}
			for _, s := range []Strategy{Factored, FactoredOptimized} {
				got, err := pl.Run(s, load(), engine.Options{})
				if err != nil {
					t.Fatalf("%s %s EDB %d: %v", ex.name, s, i, err)
				}
				if ok, diff := SameAnswers(want, got); !ok {
					t.Errorf("%s %s EDB %d: %s", ex.name, s, i, diff)
				}
			}
		}
		if answered < len(edbs)/2 {
			t.Errorf("%s: only %d of %d EDBs give more than one answer", ex.name, answered, len(edbs))
		}
	}
}

// Reduction names its predicate r_r<pos>; when the program already uses
// that name, factoring keeps its refusal rather than merge the two.
func TestReductionKeepsRefusalOnNameClash(t *testing.T) {
	prog := parser.MustParseProgram(digraphRules + "s(X) :- r_r1(X).\n")
	err := New(prog, mustAtom(t, "r(X,17)")).Compile(Factored)
	if err == nil || !strings.Contains(err.Error(), "not a unit program") {
		t.Errorf("compile error %v, want factoring's refusal", err)
	}
}

// The reduction puts the query constant into the rules, so the plan
// template's rules carry the parameter and binding substitutes it: r(X,23)
// is served from r(X,17)'s template without a rewrite.
func TestReducedTemplateCarriesParameter(t *testing.T) {
	prog := parser.MustParseProgram(digraphRules)
	hash := HashProgram(prog, nil)
	cache := NewPlanCache()
	if _, _, err := cache.Lookup(context.Background(), prog, hash, nil, mustAtom(t, "r(X,17)"), FactoredOptimized); err != nil {
		t.Fatal(err)
	}
	q := mustAtom(t, "r(X,23)")
	plan, hit, err := cache.Lookup(context.Background(), prog, hash, nil, q, FactoredOptimized)
	if err != nil || !hit {
		t.Fatalf("lookup: hit %v, %v", hit, err)
	}
	tmpl, _, _, err := cache.template(prog, hash, nil, shapeOf(q, prog, nil)).MaterializedProgram(FactoredOptimized)
	if err != nil || !strings.Contains(tmpl.String(), "g(X,'$0')") {
		t.Errorf("template program (%v):\n%s", err, tmpl)
	}
	got, _, _, _ := plan.Pipeline().MaterializedProgram(FactoredOptimized)
	if want := "r_r1(X) :- g(X,23).\nr_r1(X) :- g(X,Z), r_r1(Z).\n"; got.String() != want {
		t.Errorf("bound program:\n%s\nwant\n%s", got, want)
	}
	info, err := plan.Pipeline().Explain(FactoredOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if text := info.Text(); !strings.Contains(text, "static-argument reduction (Def. 5.2): r/2 → r_r1/1 at position 1") || strings.Contains(text, "$") {
		t.Errorf("bound EXPLAIN:\n%s", text)
	}
}
