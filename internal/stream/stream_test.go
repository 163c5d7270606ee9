package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/trace"
)

// mixedProgram exercises every stratum shape the executor routes: layered
// non-recursive joins (s1, s2), a recursive stratum (tc over s1), and a
// non-recursive consumer of the recursion's output (top).
const mixedProgram = `
s1(X, Z) :- e(X, Y), f(Y, Z).
s2(X, Z) :- s1(X, Y), g(Y, Z).
tc(X, Y) :- s1(X, Y).
tc(X, Z) :- tc(X, Y), s1(Y, Z).
top(X, Z) :- tc(X, Y), s2(Y, Z).
`

func loadMixedEDB(db *engine.DB, n int) {
	for i := 0; i < n; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("f", db.Store.Int(i+1), db.Store.Int(i+2))
		if i%2 == 0 {
			db.MustInsert("g", db.Store.Int(i+2), db.Store.Int(i))
		}
	}
}

// relationSets renders every relation's contents as a sorted string set,
// ignoring insertion order and round stamps — the equality the streaming
// executor guarantees against the fixpoint.
func relationSets(db *engine.DB) map[string][]string {
	out := map[string][]string{}
	for _, pred := range db.Preds() {
		rel := db.Lookup(pred)
		rows := make([]string, 0, rel.Len())
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			rows = append(rows, db.Store.TupleString(rel.Tuple(pos)))
		}
		sort.Strings(rows)
		out[pred] = rows
	}
	return out
}

func diffRelations(t *testing.T, want, got map[string][]string) {
	t.Helper()
	for pred, w := range want {
		g, ok := got[pred]
		if !ok {
			t.Errorf("predicate %s missing from streamed result", pred)
			continue
		}
		if len(w) != len(g) {
			t.Errorf("%s: %d tuples materialized vs %d streamed", pred, len(w), len(g))
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s: tuple %d differs: %s vs %s", pred, i, w[i], g[i])
				break
			}
		}
	}
	for pred := range got {
		if _, ok := want[pred]; !ok {
			t.Errorf("predicate %s only in streamed result", pred)
		}
	}
}

func TestStreamMatchesEngineOnMixedProgram(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	store := engine.NewStore()
	dbEng := engine.NewDBWith(store)
	loadMixedEDB(dbEng, 12)
	dbStr := dbEng.Clone()

	if _, err := engine.Eval(prog, dbEng, engine.Options{}); err != nil {
		t.Fatalf("engine eval: %v", err)
	}
	res, err := Eval(prog, dbStr, engine.Options{})
	if err != nil {
		t.Fatalf("stream eval: %v", err)
	}
	diffRelations(t, relationSets(dbEng), relationSets(dbStr))

	if res.Stream.Strata != 4 {
		t.Errorf("Strata = %d, want 4", res.Stream.Strata)
	}
	if res.Stream.Streamed != 3 {
		t.Errorf("Streamed = %d, want 3 (s1, s2, top)", res.Stream.Streamed)
	}
	if res.Stream.RowsEmitted == 0 || res.Stats.Derived == 0 {
		t.Errorf("no rows streamed: %+v", res.Stream)
	}
	if res.Stream.Probes == 0 {
		t.Errorf("no probes counted: %+v", res.Stream)
	}
	if res.Stream.BuildTables == 0 {
		t.Errorf("expected transient build tables, got %+v", res.Stream)
	}
}

func TestStreamPlanShapeAndPushdowns(t *testing.T) {
	prog := parser.MustParseProgram(`
p(X, Z) :- e(X, Y), f(Y, Z).
q(Y) :- p(5, Y).
r(X, Y) :- q(X), tcq(X, Y).
tcq(X, Y) :- q(X), e(X, Y).
tcq(X, Z) :- tcq(X, Y), e(Y, Z).
`)
	plan, err := PlanProgram(prog, engine.NewStore(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Strata) != 4 {
		t.Fatalf("got %d strata, want 4", len(plan.Strata))
	}
	if plan.Streamed() != 3 {
		t.Fatalf("streamed %d strata, want 3", plan.Streamed())
	}

	byPred := map[string]*StratumPlan{}
	for i := range plan.Strata {
		for _, pred := range plan.Strata[i].Preds {
			byPred[pred] = &plan.Strata[i]
		}
	}
	if sp := byPred["tcq"]; sp.Streamed || !sp.Recursive {
		t.Errorf("tcq stratum should be a recursive fixpoint: %+v", sp)
	}
	if sp := byPred["p"]; !sp.Streamed || len(sp.Rules) != 1 {
		t.Fatalf("p stratum not streamed as one rule: %+v", sp)
	}

	// p's plan: materialize ← project ← hash-join f ← scan e, with the join
	// key pushed into the probe.
	chain := chainNodes(byPred["p"].Rules[0].Root)
	ops := make([]string, len(chain))
	for i, n := range chain {
		ops[i] = n.Op
	}
	if got, want := strings.Join(ops, " "), "scan hash-join project materialize"; got != want {
		t.Errorf("p operator chain = %q, want %q", got, want)
	}
	if join := chain[1]; len(join.Pushed) != 1 || !strings.Contains(join.Pushed[0], "col0") {
		t.Errorf("join pushdown = %v, want the Y key on col0", join.Pushed)
	}

	// q's scan of p carries the constant selection σ col0=5.
	qScan := chainNodes(byPred["q"].Rules[0].Root)[0]
	if len(qScan.Pushed) != 1 || !strings.Contains(qScan.Pushed[0], "σ col0=5") {
		t.Errorf("q scan pushdown = %v, want σ col0=5", qScan.Pushed)
	}

	// Materialization reasons name the consumption boundary.
	reason := func(pred string) string {
		chain := chainNodes(byPred[pred].Rules[0].Root)
		return chain[len(chain)-1].Detail
	}
	if !strings.Contains(reason("q"), "recursion boundary") {
		t.Errorf("q sink reason = %q, want recursion boundary", reason("q"))
	}
	if !strings.Contains(reason("r"), "kept for answers") {
		t.Errorf("r sink reason = %q, want kept for answers", reason("r"))
	}
	if n := countPushdowns(plan); n == 0 {
		t.Error("plan reports zero pushdowns")
	}
	if tree := byPred["p"].Rules[0].Root.Tree(); !strings.Contains(tree, "hash-join f") {
		t.Errorf("rendered tree missing join:\n%s", tree)
	}
}

func TestStreamBodylessAndEmptyRelations(t *testing.T) {
	prog := parser.MustParseProgram(`
seed(1, 2).
out(X, Y) :- seed(X, Y), missing(Y).
`)
	db := engine.NewDB()
	res, err := Eval(prog, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("seed") != 1 {
		t.Errorf("seed count = %d, want 1 (bodyless rule streams one row)", db.Count("seed"))
	}
	if db.Count("out") != 0 {
		t.Errorf("out count = %d, want 0 (empty body relation)", db.Count("out"))
	}
	if db.Lookup("missing") == nil {
		t.Error("body relation was not materialized")
	}
	if res.Stream.Streamed == 0 {
		t.Error("nothing streamed")
	}
}

func TestStreamDuplicatesAreDistinct(t *testing.T) {
	// Both rules derive the same tuples; the sink deduplicates.
	prog := parser.MustParseProgram(`
d(X) :- e(X, Y).
d(Y) :- e(X, Y).
`)
	db := engine.NewDB()
	a := db.Store.Const("a")
	db.MustInsert("e", a, a)
	db.MustInsert("e", a, db.Store.Const("b"))
	res, err := Eval(prog, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("d") != 2 {
		t.Errorf("d count = %d, want 2", db.Count("d"))
	}
	if res.Stream.RowsEmitted != 4 || res.Stream.Duplicates != 2 {
		t.Errorf("emitted/duplicates = %d/%d, want 4/2", res.Stream.RowsEmitted, res.Stream.Duplicates)
	}
}

func TestStreamReusesPersistentIndex(t *testing.T) {
	prog := parser.MustParseProgram(`j(X, Z) :- e(X, Y), f(Y, Z).`)
	db := engine.NewDB()
	for i := 0; i < 8; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("f", db.Store.Int(i+1), db.Store.Int(i+2))
	}
	// Build a persistent index on f's first column, as a prior evaluation
	// over the same DB would have.
	db.Lookup("f").Probe([]int{0}, []engine.Val{db.Store.Int(1)})

	res, err := Eval(prog, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream.IndexReuses == 0 {
		t.Errorf("expected persistent-index reuse: %+v", res.Stream)
	}
	if res.Stream.BuildTables != 0 {
		t.Errorf("built %d transient tables despite existing index", res.Stream.BuildTables)
	}
	if db.Count("j") != 8 {
		t.Errorf("j count = %d, want 8", db.Count("j"))
	}
}

func TestStreamTraceCountersAndOps(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	db := engine.NewDB()
	loadMixedEDB(db, 8)
	tc := trace.New(trace.NewID())
	res, err := Eval(prog, db, engine.Options{Span: tc.Root()})
	if err != nil {
		t.Fatal(err)
	}
	tc.Finish()
	if len(res.Stats.Rules) != 5 {
		t.Fatalf("got %d rule records, want 5", len(res.Stats.Rules))
	}
	for _, rs := range res.Stats.Rules {
		if rs.Firings == 0 {
			t.Errorf("rule %d (%s) never fired", rs.Index, rs.Rule)
		}
	}
	strata := 0
	tc.Root().Walk(func(s *trace.Span) {
		if s.Name == "stratum" {
			strata++
		}
	})
	if strata != 4 {
		t.Errorf("got %d stratum spans, want 4", strata)
	}
	if len(res.Stream.Ops) == 0 {
		t.Fatal("no per-operator records under Trace")
	}
	var sawJoinRows bool
	for _, op := range res.Stream.Ops {
		if (op.Op == "hash-join" || op.Op == "nested-loop") && op.RowsIn > 0 {
			sawJoinRows = true
		}
	}
	if !sawJoinRows {
		t.Errorf("no join operator measured rows: %+v", res.Stream.Ops)
	}
	// The streamed rules fire exactly once; the recursive tc rules fire
	// once per round and delta occurrence.
	if res.Stats.Rules[0].Firings != 1 {
		t.Errorf("streamed rule fired %d times, want 1", res.Stats.Rules[0].Firings)
	}
}

func TestStreamOptionValidation(t *testing.T) {
	prog := parser.MustParseProgram(`d(X) :- e(X, X).`)
	cases := []engine.Options{
		{Provenance: true},
		{Strategy: engine.Naive},
		{Workers: -1},
		{MaxFacts: -1},
		{MaxIterations: -1},
		{MaxBytes: -1},
	}
	for i, opts := range cases {
		if _, err := Eval(prog, engine.NewDB(), opts); !errors.Is(err, engine.ErrBadOptions) {
			t.Errorf("case %d: err = %v, want ErrBadOptions", i, err)
		}
	}
}

func TestStreamBudgetsAndCancellation(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)

	db := engine.NewDB()
	loadMixedEDB(db, 10)
	if _, err := Eval(prog, db, engine.Options{MaxFacts: 3}); !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Errorf("MaxFacts: err = %v, want ErrBudgetExceeded", err)
	}

	db = engine.NewDB()
	loadMixedEDB(db, 10)
	if _, err := Eval(prog, db, engine.Options{MaxBytes: 64}); !errors.Is(err, engine.ErrMemoryBudget) {
		t.Errorf("MaxBytes: err = %v, want ErrMemoryBudget", err)
	}

	db = engine.NewDB()
	loadMixedEDB(db, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eval(prog, db, engine.Options{Context: ctx}); !errors.Is(err, engine.ErrCanceled) {
		t.Errorf("canceled ctx: err = %v, want ErrCanceled", err)
	}

	// MaxIterations must bound the recursive stratum's fixpoint through the
	// delegated engine run.
	db = engine.NewDB()
	for i := 0; i < 64; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("f", db.Store.Int(i+1), db.Store.Int(i+2))
		db.MustInsert("g", db.Store.Int(i+2), db.Store.Int(i))
	}
	if _, err := Eval(prog, db, engine.Options{MaxIterations: 3}); !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Errorf("MaxIterations: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestStreamParallelRecursiveStrata(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	store := engine.NewStore()
	dbSeq := engine.NewDBWith(store)
	loadMixedEDB(dbSeq, 16)
	dbPar := dbSeq.Clone()

	if _, err := Eval(prog, dbSeq, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := Eval(prog, dbPar, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	diffRelations(t, relationSets(dbSeq), relationSets(dbPar))
	if res.Stats.Degraded {
		t.Error("parallel recursive stratum degraded unexpectedly")
	}
}

// TestStreamAnswersMatchQuery pins the answer-projection path end to end.
func TestStreamAnswersMatchQuery(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	db := engine.NewDB()
	loadMixedEDB(db, 12)
	if _, err := Eval(prog, db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	query := ast.NewAtom("top", ast.V("X"), ast.V("Y"))
	got, err := engine.AnswerSet(db, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no answers for top(X, Y)")
	}
	for ans := range got {
		if !strings.HasPrefix(ans, "(") {
			t.Fatalf("unexpected answer shape %q", ans)
		}
	}
}

// TestStreamRandomizedDifferential fuzzes small random layered programs and
// EDBs against the fixpoint evaluator.
func TestStreamRandomizedDifferential(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var b strings.Builder
			depth := 2 + seed%3
			b.WriteString("t0(X, Y) :- e0(X, Y).\n")
			for d := 1; d <= depth; d++ {
				fmt.Fprintf(&b, "t%d(X, Z) :- t%d(X, Y), e%d(Y, Z).\n", d, d-1, d)
			}
			fmt.Fprintf(&b, "rec(X, Y) :- t%d(X, Y).\nrec(X, Z) :- rec(X, Y), e0(Y, Z).\n", depth)
			prog := parser.MustParseProgram(b.String())

			store := engine.NewStore()
			dbEng := engine.NewDBWith(store)
			x := uint64(seed)*2654435761 + 1
			next := func(n int) int {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return int(x % uint64(n))
			}
			for d := 0; d <= depth; d++ {
				pred := fmt.Sprintf("e%d", d)
				for i := 0; i < 20; i++ {
					dbEng.MustInsert(pred, store.Int(next(12)), store.Int(next(12)))
				}
			}
			dbStr := dbEng.Clone()
			if _, err := engine.Eval(prog, dbEng, engine.Options{}); err != nil {
				t.Fatal(err)
			}
			if _, err := Eval(prog, dbStr, engine.Options{}); err != nil {
				t.Fatal(err)
			}
			diffRelations(t, relationSets(dbEng), relationSets(dbStr))
		})
	}
}
