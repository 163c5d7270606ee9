package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/cost"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// templateCase is one program of the template equivalence suite: its rules,
// constraints and base facts, and the queries to serve from one plan cache.
type templateCase struct {
	name        string
	prog        *ast.Program
	constraints []ast.Rule
	facts       []ast.Atom
	queries     []ast.Atom
}

// benchRules reads the IDB of the benchmark's mixed.dl (the Rules constant
// of bench/work/program.go), so the suite covers the program the benchmark
// serves without importing the bench module.
func benchRules(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "bench", "work", "program.go"))
	if err != nil {
		t.Fatal(err)
	}
	const open = "const Rules = `"
	i := strings.Index(string(src), open)
	if i < 0 {
		t.Fatal("bench/work/program.go declares no Rules constant")
	}
	rest := string(src[i+len(open):])
	return rest[:strings.IndexByte(rest, '`')]
}

// withConstant returns q with every bound atomic argument replaced by c and
// every variable renamed by suffix, the variant a later client would send.
func withConstant(q ast.Atom, c ast.Term, suffix string) ast.Atom {
	out := ast.Atom{Pred: q.Pred, Args: make([]ast.Term, len(q.Args))}
	for i, t := range q.Args {
		switch {
		case t.IsConst():
			out.Args[i] = c
		case t.IsVar():
			out.Args[i] = ast.V(t.Functor + suffix)
		default:
			out.Args[i] = t
		}
	}
	return out
}

// factConstants lists the atomic constants of facts, sorted.
func factConstants(facts []ast.Atom) []ast.Term {
	seen := map[string]bool{}
	var out []ast.Term
	for _, f := range facts {
		for _, t := range f.Args {
			if t.IsConst() && !seen[t.Functor] {
				seen[t.Functor] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Functor < out[j].Functor })
	return out
}

// templateCases loads every testdata program that declares a query — each
// declared query swept over its program's fact constants, half of them with
// renamed variables — the benchmark's program over a small base, and three
// shapes the sweep alone would miss: a repeated constant, a constant the
// rules mention, and compound bound arguments.
func templateCases(t *testing.T) []templateCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.dl"))
	var cases []templateCase
	for _, file := range append(files, corpus...) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		u, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(u.Queries) == 0 {
			continue
		}
		tc := templateCase{name: filepath.Base(file), prog: u.Program(), facts: u.Facts}
		if cs, err := os.ReadFile(strings.TrimSuffix(file, ".dl") + "_constraints.dl"); err == nil {
			tc.constraints = parser.MustParseProgram(string(cs)).Rules
		}
		for _, q := range u.Queries {
			tc.queries = append(tc.queries, q)
			for i, c := range factConstants(u.Facts) {
				tc.queries = append(tc.queries, withConstant(q, c, strings.Repeat("2", i%2)))
			}
		}
		cases = append(cases, tc)
	}

	var bench templateCase
	bench.name = "bench/work.Rules"
	bench.prog = parser.MustParseProgram(benchRules(t))
	var edb strings.Builder
	for i := 1; i < 8; i++ {
		fmt.Fprintf(&edb, "e(%d,%d). g(%d,%d). g(%d,%d).\n", i, i+1, i, (i*3)%8, i, (i+5)%8)
	}
	for k := 0; k <= 6; k++ {
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&edb, "s%d(%d,%d). s%d(%d,%d).\n", k, i, (i*7+k)%6, k, i, (i*7+k+11)%6)
		}
	}
	edb.WriteString("up(nl,n). up(nr,n). up(nll,nl). up(nlr,nl). up(nrl,nr).\n")
	edb.WriteString("down(n,nl). down(n,nr). down(nl,nll). down(nl,nlr). down(nr,nrl).\n")
	edb.WriteString("flat(nl,nr). flat(nr,nl).\n")
	bench.facts = mustFacts(t, edb.String())
	for _, q := range []string{
		"t(1,Y)", "t(3,Z)", "t(7,Y)", "r(2,Y)", "r(5,Y)", "r(X,4)", "r(X,0)",
		"sg(nll,Y)", "sg(nrl,W)", "t6(1,Z)", "t6(4,Z)", "t3(X,Z)", "t(X,X)", "t(Y,Y)",
	} {
		bench.queries = append(bench.queries, parser.MustParseAtom(q))
	}
	cases = append(cases, bench)

	// tc3's closure with constants the sweep never forms: t(5,5) and t(6,6)
	// share the shape t($0,$0), t(5,6) and t(7,8) the shape t($0,$1); the
	// rule mentions 9, so t(9,Y) must not share t(5,Y)'s template; compound
	// bound arguments are each their own shape.
	extra := templateCase{name: "constants",
		prog: parser.MustParseProgram(tcSrc + "t(X, 9) :- e(X, 8).\n")}
	extra.facts = mustFacts(t, "e(5,6). e(6,7). e(7,8). e(1,2). e(f(1),f(2)). e(f(2),5).")
	for _, q := range []string{
		"t(5,Y)", "t(9,Y)", "t(6,A)", "t(X,9)", "t(X,5)",
		"t(5,5)", "t(6,6)", "t(5,6)", "t(7,8)", "t(1,8)",
		"t(f(1),Y)", "t(f(2),Y)", "t(f(1),f(2))",
	} {
		extra.queries = append(extra.queries, parser.MustParseAtom(q))
	}
	cases = append(cases, extra)
	return cases
}

func mustFacts(t *testing.T, src string) []ast.Atom {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return u.Facts
}

// autoRows renders a candidate table's (strategy, reorder, cost) rows.
func autoRows(d *AutoDecision, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, c := range d.Candidates {
		// Nine significant digits: the cost model sums over maps, so the
		// last bits of an estimate vary from one pricing to the next.
		fmt.Fprintf(&b, "%s/%v/%.9g/%.9g/%d/%v\n", c.Strategy, c.Reorder, c.Cost, c.Rows, c.Rounds, c.Chosen)
	}
	return b.String()
}

// TestTemplateInstantiationMatchesFreshCompile: for every program, query and
// materializable strategy, the plan the cache binds from a shape's template
// equals a fresh New(prog, q).Compile(s) in its materialized program, its
// answer atom, its EXPLAIN text and its answers; and the plan search on the
// bound plan and on the template prices the same table as a fresh one.
func TestTemplateInstantiationMatchesFreshCompile(t *testing.T) {
	var strategies []Strategy
	for _, s := range AllStrategies() {
		if MaterializableStrategy(s) {
			strategies = append(strategies, s)
		}
	}
	constants := map[string]bool{}
	templated := 0
	compiled := map[string]bool{} // shape|strategy pairs that compiled
	for _, tc := range templateCases(t) {
		base, err := engine.NewBase(tc.facts, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		snap := cost.SnapshotFromVersion(base.Current())
		hash := HashProgram(tc.prog, tc.constraints)
		cache := NewPlanCache()
		for _, q := range tc.queries {
			sh := shapeOf(q, tc.prog, tc.constraints)
			for _, c := range sh.params {
				constants[c.String()] = true
			}
			for _, s := range strategies {
				where := fmt.Sprintf("%s %s %s", tc.name, q, s)
				plan, hit, lerr := cache.Lookup(context.Background(), tc.prog, hash, tc.constraints, q, s)
				// Alphabetic variants share a plan, so the plan serves q as the
				// first of them spelled it.
				served := q
				if lerr == nil {
					served = plan.Query
				}
				if served.CanonicalKey() != q.CanonicalKey() {
					t.Fatalf("%s: plan serves %s", where, served)
				}
				fresh := New(tc.prog, served).WithConstraints(tc.constraints)
				if ferr := fresh.Compile(s); (lerr == nil) != (ferr == nil) ||
					ferr != nil && !strings.HasSuffix(lerr.Error(), ferr.Error()) {
					t.Errorf("%s: lookup error %v, fresh compile error %v", where, lerr, ferr)
					continue
				} else if ferr != nil {
					continue
				}
				if hit && len(sh.params) > 0 {
					templated++
				}
				compiled[sh.canon+"|"+s.String()] = true
				gotProg, gotAns, gotT, err1 := plan.Pipeline().MaterializedProgram(s)
				wantProg, wantAns, wantT, err2 := fresh.MaterializedProgram(s)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: materialized program: %v / %v", where, err1, err2)
				}
				if gotProg.String() != wantProg.String() {
					t.Errorf("%s: program\n%s\nwant\n%s", where, gotProg, wantProg)
				}
				if gotAns.String() != wantAns.String() || gotT != wantT {
					t.Errorf("%s: answer atom %s (%v), want %s (%v)", where, gotAns, gotT, wantAns, wantT)
				}
				gotEx, err1 := plan.Pipeline().Explain(s)
				wantEx, err2 := fresh.Explain(s)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: explain: %v / %v", where, err1, err2)
				}
				if gotEx.Text() != wantEx.Text() {
					t.Errorf("%s: explain\n%s\nwant\n%s", where, gotEx.Text(), wantEx.Text())
				}
				budget := engine.Options{MaxFacts: 20_000}
				got, err1 := plan.Run(base.Current().EvalDB(), budget)
				want, err2 := fresh.Run(s, base.Current().EvalDB(), budget)
				if err1 != nil || err2 != nil {
					if fmt.Sprint(err1) != fmt.Sprint(err2) {
						t.Errorf("%s: run error %v, want %v", where, err1, err2)
					}
					continue
				}
				if g, w := fmt.Sprint(SortedAnswers(got)), fmt.Sprint(SortedAnswers(want)); g != w {
					t.Errorf("%s: answers %s, want %s", where, g, w)
				}
			}
			// The plan search: on the bound plan, and on the template the
			// planner searches once per shape.
			want := autoRows(New(tc.prog, q).WithConstraints(tc.constraints).AutoPick(snap))
			plan, _, err := cache.Lookup(context.Background(), tc.prog, hash, tc.constraints, q, SemiNaive)
			if err != nil {
				t.Fatal(err)
			}
			if got := autoRows(plan.Pipeline().AutoPick(snap)); got != want {
				t.Errorf("%s %s: bound plan's candidates\n%s\nwant\n%s", tc.name, q, got, want)
			}
			if got := autoRows(cache.template(tc.prog, hash, tc.constraints, sh).AutoPick(snap)); got != want {
				t.Errorf("%s %s: template's candidates\n%s\nwant\n%s", tc.name, q, got, want)
			}
		}
	}
	if len(constants) < 20 {
		t.Errorf("%d distinct parameterised constants, want at least 20", len(constants))
	}
	if templated == 0 {
		t.Error("no plan was bound from an already-compiled template")
	}
	// A closure into a constant compiles under factoring through
	// static-argument reduction, its constant reaching the rules.
	for _, s := range []Strategy{Factored, FactoredOptimized} {
		if !compiled["r(V0,'$0')|"+s.String()] {
			t.Errorf("r(X,$0) did not compile under %s", s)
		}
	}
}

// TestTemplateShapes pins which queries share a template.
func TestTemplateShapes(t *testing.T) {
	prog := parser.MustParseProgram(tcSrc + "t(X, 9) :- e(X, 8).\n")
	for _, tt := range []struct {
		query, canon string
		params       int
	}{
		{"t(5,Y)", "t('$0',V0)", 1},
		{"t(6,Z)", "t('$0',V0)", 1},
		{"t(5,5)", "t('$0','$0')", 1},
		{"t(5,6)", "t('$0','$1')", 2},
		{"t(X,5)", "t(V0,'$0')", 1},
		{"t(X,X)", "t(V0,V0)", 0},
		{"t(9,Y)", "t(9,V0)", 0},           // the rule mentions 9
		{"t(f(1),Y)", "t(f(1),V0)", 0},     // compound bound argument
		{"t(5,f(5,Y))", "t(5,f(5,V0))", 0}, // 5 recurs in a free argument
		{"t('$0',Y)", "t('$0',V0)", 0},     // spelled like a parameter
	} {
		sh := shapeOf(parser.MustParseAtom(tt.query), prog, nil)
		if sh.canon != tt.canon || len(sh.params) != tt.params {
			t.Errorf("shapeOf(%s) = %s with %d params, want %s with %d", tt.query, sh.canon, len(sh.params), tt.canon, tt.params)
		}
	}
	// A constant in a constraint blocks parameterisation like one in a rule.
	tgd := parser.MustParseProgram("e(X, 5) :- e(X, Y).").Rules
	if sh := shapeOf(parser.MustParseAtom("t(5,Y)"), prog, tgd); len(sh.params) != 0 {
		t.Errorf("constraint mentions 5, but t(5,Y) was parameterised as %s", sh.canon)
	}
}

// TestTemplateCompilesOncePerShape: every strategy and every constant of one
// shape shares one template, so each rewrite stage runs once, a new
// constant reports a hit, and the planner searches once.
func TestTemplateCompilesOncePerShape(t *testing.T) {
	p := mustProgram(t, chainTCSrc)
	hash := HashProgram(p, nil)
	cache := NewPlanCache()
	for i := 1; i <= 8; i++ {
		for _, s := range []Strategy{Magic, Factored, FactoredOptimized, Counting, SupplementaryMagic} {
			_, hit, err := cache.Lookup(context.Background(), p, hash, nil, mustAtom(t, fmt.Sprintf("tc(%d, Y)", i)), s)
			if err != nil {
				t.Fatal(err)
			}
			if hit != (i > 1) {
				t.Errorf("tc(%d,Y) %s: hit=%v", i, s, hit)
			}
		}
	}
	tmpl := cache.template(p, hash, nil, shapeOf(mustAtom(t, "tc(1, Y)"), p, nil))
	var names []string
	for _, sp := range tmpl.stageRecords() {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, " "); got != "adorn magic factor optimize counting sup-magic" {
		t.Errorf("template stages ran: %s, want each once", got)
	}

	mat, err := NewMaterializer(p, nil, []ast.Atom{mustAtom(t, "e(1, 2)"), mustAtom(t, "e(2, 3)")}, cache, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planner := NewAutoPlanner(p, nil, cache, SnapshotSource(mat), AutoPolicy{})
	for i := 1; i <= 8; i++ {
		serve, err := planner.Choose(context.Background(), mustAtom(t, fmt.Sprintf("tc(%d, Y)", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !serve.PlanHit || serve.Plan.Binding != fmt.Sprintf("(%d)", i) {
			t.Errorf("auto tc(%d,Y): plan hit=%v binding %s", i, serve.PlanHit, serve.Plan.Binding)
		}
	}
	if st := planner.Stats(); st.Picks != 1 {
		t.Errorf("picks = %d, want 1 for one shape", st.Picks)
	}
}

// TestTemplateConcurrentBinds binds many constants of one shape at once and
// runs the plans; under -race it checks the shared template and the bound
// pipelines' lazy stage memos.
func TestTemplateConcurrentBinds(t *testing.T) {
	p := mustProgram(t, tcSrc)
	hash := HashProgram(p, nil)
	cache := NewPlanCache()
	want := map[int]int{5: 3, 6: 2, 7: 1, 1: 1, 2: 0, 8: 0}
	var wg sync.WaitGroup
	errs := make(chan error, 48)
	for i := 0; i < 48; i++ {
		k := []int{5, 6, 7, 1, 2, 8}[i%6]
		s := []Strategy{Magic, FactoredOptimized, Factored, SupplementaryMagic}[i%4]
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := parser.MustParseAtom(fmt.Sprintf("t(%d,Y)", k))
			plan, _, err := cache.Lookup(context.Background(), p, hash, nil, q, s)
			if err != nil {
				errs <- err
				return
			}
			if _, err := plan.Pipeline().Explain(s); err != nil {
				errs <- err
				return
			}
			res, err := plan.Run(edgeDB(), engine.Options{})
			if err != nil {
				errs <- fmt.Errorf("%s/%s: %v", q, s, err)
				return
			}
			if len(res.Answers) != want[k] {
				errs <- fmt.Errorf("%s/%s: %d answers, want %d", q, s, len(res.Answers), want[k])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cache.Stats(); st.Misses > 4 || st.Hits+st.Misses != 48 {
		t.Errorf("stats %+v: want at most one miss per strategy", st)
	}
}
