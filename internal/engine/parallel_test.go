package engine

import (
	"errors"
	"math/rand"
	"testing"

	"factorlog/internal/parser"
	"factorlog/internal/trace"
)

// TestParallelMatchesSequentialRandomGraphs is the parallel-correctness
// property test: over random EDBs, the parallel stratified evaluator
// (Workers: 8) must produce the same answer set and the same Stats.Derived
// as the sequential semi-naive evaluator (Workers: 1). Run under -race this
// also exercises the concurrent Store and frozen-relation probes.
func TestParallelMatchesSequentialRandomGraphs(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- t(X, W), t(W, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- t(X, W), e(W, Y).
		t(X, Y) :- e(X, Y).
	`)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		edges := make([][2]int, 0)
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
		load := func() *DB {
			db := NewDB()
			for _, e := range edges {
				db.MustInsert("e", db.Store.Int(e[0]), db.Store.Int(e[1]))
			}
			return db
		}
		dbSeq, dbPar := load(), load()
		resSeq, err := Eval(p, dbSeq, Options{Strategy: SemiNaive, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		resPar, err := Eval(p, dbPar, Options{Strategy: SemiNaive, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if resSeq.Stats.Derived != resPar.Stats.Derived {
			t.Fatalf("seed %d: Derived differs: sequential %d, parallel %d",
				seed, resSeq.Stats.Derived, resPar.Stats.Derived)
		}
		q := parser.MustParseAtom("t(X, Y)")
		sSeq, _ := AnswerSet(dbSeq, q)
		sPar, _ := AnswerSet(dbPar, q)
		if len(sSeq) != len(sPar) {
			t.Fatalf("seed %d: answer sets differ: %d vs %d", seed, len(sSeq), len(sPar))
		}
		for k := range sSeq {
			if !sPar[k] {
				t.Fatalf("seed %d: %s missing from parallel answers", seed, k)
			}
		}
	}
}

// TestParallelStratifiedMagic runs the same-generation magic program (three
// strata: magic fixpoint, answer fixpoint, query projection) at several
// worker counts and checks the answers against the sequential evaluator.
func TestParallelStratifiedMagic(t *testing.T) {
	src := `
		m_sg_bf(john).
		m_sg_bf(U) :- m_sg_bf(X), up(X,U).
		sg_bf(X,Y) :- m_sg_bf(X), flat(X,Y).
		sg_bf(X,Y) :- m_sg_bf(X), up(X,U), sg_bf(U,V), down(V,Y).
		query(Y) :- sg_bf(john,Y).
	`
	load := func() *DB {
		db := NewDB()
		c := db.Store.Const
		for _, e := range [][3]string{
			{"up", "john", "anne"}, {"up", "anne", "root"},
			{"flat", "root", "peer"}, {"flat", "anne", "maria"},
			{"down", "peer", "lea"}, {"down", "maria", "bill"},
			{"down", "lea", "sam"},
		} {
			db.MustInsert(e[0], c(e[1]), c(e[2]))
		}
		return db
	}
	p := parser.MustParseProgram(src)
	dbSeq := load()
	resSeq, err := Eval(p, dbSeq, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	q := parser.MustParseAtom("query(Y)")
	want, _ := AnswerSet(dbSeq, q)
	if len(want) == 0 {
		t.Fatal("sequential run produced no answers; bad fixture")
	}
	for _, workers := range []int{2, 4, 8} {
		dbPar := load()
		tc := trace.New(trace.NewID())
		resPar, err := Eval(p, dbPar, Options{Strategy: SemiNaive, Workers: workers, Span: tc.Root()})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if resPar.Stats.Derived != resSeq.Stats.Derived {
			t.Errorf("workers=%d: Derived = %d, want %d", workers, resPar.Stats.Derived, resSeq.Stats.Derived)
		}
		got, _ := AnswerSet(dbPar, q)
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Errorf("workers=%d: missing answer %s", workers, k)
			}
		}
		tc.Finish()
		if n := len(spansNamed(tc, "stratum")); n != 3 {
			t.Errorf("workers=%d: %d stratum spans, want 3", workers, n)
		}
		if n := len(spansNamed(tc, "worker")); n != workers {
			t.Errorf("workers=%d: %d worker spans", workers, n)
		}
	}
}

// TestParallelCompoundHeads drives concurrent interning through the shared
// store: a sharded pass derives compound head terms from every worker.
func TestParallelCompoundHeads(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- t(X, W), e(W, Y).
		pair(f(X, Y)) :- t(X, Y).
	`)
	load := func() *DB {
		db := NewDB()
		for i := 0; i < 40; i++ {
			db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		}
		return db
	}
	dbSeq, dbPar := load(), load()
	resSeq, err := Eval(p, dbSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := Eval(p, dbPar, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resSeq.Stats.Derived != resPar.Stats.Derived {
		t.Fatalf("Derived differs: sequential %d, parallel %d", resSeq.Stats.Derived, resPar.Stats.Derived)
	}
	q := parser.MustParseAtom("pair(P)")
	sSeq, _ := AnswerSet(dbSeq, q)
	sPar, _ := AnswerSet(dbPar, q)
	if len(sSeq) != len(sPar) {
		t.Fatalf("answer sets differ: %d vs %d", len(sSeq), len(sPar))
	}
	for k := range sSeq {
		if !sPar[k] {
			t.Fatalf("%s missing from parallel answers", k)
		}
	}
}

// TestOptionsValidation locks the up-front Options check: negative knobs
// are rejected with ErrBadOptions before any evaluation work happens.
func TestOptionsValidation(t *testing.T) {
	p := parser.MustParseProgram(`t(X, Y) :- e(X, Y).`)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"negative workers", Options{Workers: -1}},
		{"negative max iterations", Options{MaxIterations: -5}},
		{"negative max facts", Options{MaxFacts: -2}},
	} {
		db := NewDB()
		db.MustInsert("e", db.Store.Int(1), db.Store.Int(2))
		_, err := Eval(p, db, tc.opts)
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}
	// The zero value and explicit sequential/parallel settings stay valid.
	for _, opts := range []Options{{}, {Workers: 1}, {Workers: 8}} {
		db := NewDB()
		db.MustInsert("e", db.Store.Int(1), db.Store.Int(2))
		if _, err := Eval(p, db, opts); err != nil {
			t.Errorf("opts %+v: unexpected error %v", opts, err)
		}
	}
}

// TestParallelBudgets checks that the parallel evaluator enforces both
// budget knobs with the shared ErrBudgetExceeded sentinel.
func TestParallelBudgets(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- t(X, W), e(W, Y).
	`)
	load := func() *DB {
		db := NewDB()
		for i := 0; i < 30; i++ {
			db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		}
		return db
	}
	if _, err := Eval(p, load(), Options{Workers: 4, MaxIterations: 3}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("MaxIterations: err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := Eval(p, load(), Options{Workers: 4, MaxFacts: 10}); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("MaxFacts: err = %v, want ErrBudgetExceeded", err)
	}
}
