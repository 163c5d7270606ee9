package cost

import (
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/parser"
	"factorlog/internal/workload"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestSnapshotFromAtomsEmpty(t *testing.T) {
	snap := SnapshotFromAtoms(nil, 7)
	if snap.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", snap.Epoch)
	}
	if snap.TotalRows != 0 || len(snap.Relations) != 0 {
		t.Fatalf("empty snapshot has rows=%d relations=%d", snap.TotalRows, len(snap.Relations))
	}
	if _, ok := snap.Rel("e"); ok {
		t.Fatal("Rel on empty snapshot reported a relation")
	}
}

func TestSnapshotFromAtomsDistincts(t *testing.T) {
	u, err := parser.Parse("e(a,b). e(a,c). e(b,c). p(x).\n?- e(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	snap := SnapshotFromAtoms(u.Facts, 0)
	if snap.TotalRows != 4 {
		t.Fatalf("TotalRows = %d, want 4", snap.TotalRows)
	}
	e, ok := snap.Rel("e")
	if !ok || e.Rows != 3 {
		t.Fatalf("e rows = %+v, want 3", e)
	}
	if got := []int{e.Columns[0].Distinct, e.Columns[1].Distinct}; got[0] != 2 || got[1] != 2 {
		t.Fatalf("e distincts = %v, want [2 2]", got)
	}
	p, _ := snap.Rel("p")
	if p.Rows != 1 || p.Columns[0].Distinct != 1 {
		t.Fatalf("p stats = %+v", p)
	}
}

func TestSnapshotFromDBEmptyAndMutated(t *testing.T) {
	db := engine.NewDB()
	snap := SnapshotFromDB(db, 1)
	if snap.TotalRows != 0 || len(snap.Relations) != 0 {
		t.Fatalf("empty DB snapshot: rows=%d relations=%d", snap.TotalRows, len(snap.Relations))
	}

	c := func(s string) engine.Val { return db.Store.Const(s) }
	db.MustInsert("e", c("1"), c("2"))
	db.MustInsert("e", c("2"), c("3"))
	db.MustInsert("e", c("3"), c("3"))
	snap = SnapshotFromDB(db, 2)
	e, _ := snap.Rel("e")
	if e.Rows != 3 || e.Columns[0].Distinct != 3 || e.Columns[1].Distinct != 2 {
		t.Fatalf("pre-delete stats = %+v", e)
	}

	// Retract one row: the tombstone must vanish from rows and distincts.
	if !db.Lookup("e").Delete([]engine.Val{c("1"), c("2")}) {
		t.Fatal("delete failed")
	}
	snap = SnapshotFromDB(db, 3)
	e, _ = snap.Rel("e")
	if e.Rows != 2 {
		t.Fatalf("post-delete rows = %d, want 2 (dead row counted)", e.Rows)
	}
	if e.Columns[0].Distinct != 2 || e.Columns[1].Distinct != 1 {
		t.Fatalf("post-delete distincts = %+v, want [2 1]", e.Columns)
	}
	if snap.TotalRows != 2 {
		t.Fatalf("TotalRows = %d, want 2", snap.TotalRows)
	}
}

func TestWithObservedMerge(t *testing.T) {
	snap := SnapshotFromAtoms(nil, 0)
	s1 := snap.WithObserved(map[string]float64{"tc": 100})
	if snap.Observed != nil {
		t.Fatal("WithObserved mutated the receiver")
	}
	s2 := s1.WithObserved(map[string]float64{"tc": 50, "ft": 10})
	if s2.Observed["tc"] != 100 {
		t.Fatalf("smaller observation overwrote larger: %v", s2.Observed)
	}
	if s2.Observed["ft"] != 10 {
		t.Fatalf("new observation lost: %v", s2.Observed)
	}
	if s1.WithObserved(nil) != s1 {
		t.Fatal("WithObserved(nil) should return the receiver")
	}
}

func TestObserveRuleStats(t *testing.T) {
	prog := mustProgram(t, "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).")
	obs := ObserveRuleStats(nil, prog, []obsv.RuleStats{
		{Index: 0, TuplesDerived: 10},
		{Index: 1, TuplesDerived: 35},
		{Index: 99, TuplesDerived: 1000}, // out of range: ignored
	})
	if obs["tc"] != 45 {
		t.Fatalf("tc observed = %v, want 45", obs["tc"])
	}
	// A later, smaller evaluation must not shrink the floor.
	obs = ObserveRuleStats(obs, prog, []obsv.RuleStats{{Index: 0, TuplesDerived: 5}})
	if obs["tc"] != 45 {
		t.Fatalf("max-merge failed: %v", obs["tc"])
	}
}

// A bound probe on a high-selectivity column must price below the same
// probe on a low-selectivity column: with 1000 rows, distinct=1000 means
// one match per key, distinct=10 means a hundred.
func TestEstimateSelectivityOrdering(t *testing.T) {
	prog := mustProgram(t, "q(Y) :- w(k3, Y).")
	narrow := &Snapshot{Relations: map[string]RelationStats{
		"w": {Pred: "w", Rows: 1000, Columns: []ColumnStats{{Distinct: 1000}, {Distinct: 1000}}},
	}}
	wide := &Snapshot{Relations: map[string]RelationStats{
		"w": {Pred: "w", Rows: 1000, Columns: []ColumnStats{{Distinct: 10}, {Distinct: 1000}}},
	}}
	selective := EstimateProgram(prog, narrow, false)
	skewed := EstimateProgram(prog, wide, false)
	if selective.Cost >= skewed.Cost {
		t.Fatalf("selective probe cost %.1f >= skewed %.1f", selective.Cost, skewed.Cost)
	}
}

// The recursive chain fixpoint must converge in bounded rounds and report
// an IDB estimate at least the size of the base relation.
func TestEstimateChainConverges(t *testing.T) {
	prog := mustProgram(t, "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).")
	db := engine.NewDB()
	workload.Chain(db, "e", 50)
	snap := SnapshotFromDB(db, 0)
	est := EstimateProgram(prog, snap, false)
	if est.Rounds <= 1 || est.Rounds > maxIters {
		t.Fatalf("rounds = %d, want in (1, %d]", est.Rounds, maxIters)
	}
	if est.Rows < 49 {
		t.Fatalf("tc estimate %.1f below base size", est.Rows)
	}
	if est.Cost <= 0 {
		t.Fatalf("cost = %.1f", est.Cost)
	}
}

// An observed row count acts as a floor on the predicate's estimate: a
// snapshot calibrated by a real run never reports fewer derived rows than
// the run produced.
func TestObservedFloorRaisesEstimate(t *testing.T) {
	prog := mustProgram(t, "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).")
	db := engine.NewDB()
	workload.Chain(db, "e", 10)
	snap := SnapshotFromDB(db, 0)
	calibrated := EstimateProgram(prog, snap.WithObserved(map[string]float64{"tc": 5000}), false)
	if calibrated.Rows < 5000 {
		t.Fatalf("observed floor ignored: rows %.1f < 5000", calibrated.Rows)
	}
}

// Greedy reordering must never price a body worse than the written order
// prices it under the same statistics when the written order is already
// optimal, and must win when the written order starts with an unbound scan.
func TestReorderPricesBoundFirst(t *testing.T) {
	// Written order scans all of big(X,Y) before the selective probe.
	prog := mustProgram(t, "q(Y) :- big(X, Y), sel(k1, X).")
	snap := &Snapshot{Relations: map[string]RelationStats{
		"big": {Pred: "big", Rows: 10000, Columns: []ColumnStats{{Distinct: 10000}, {Distinct: 10000}}},
		"sel": {Pred: "sel", Rows: 100, Columns: []ColumnStats{{Distinct: 100}, {Distinct: 100}}},
	}}
	asWritten := EstimateProgram(prog, snap, false)
	reordered := EstimateProgram(prog, snap, true)
	if reordered.Cost > asWritten.Cost {
		t.Fatalf("reordered cost %.1f > as-written %.1f", reordered.Cost, asWritten.Cost)
	}
}

// TestSnapshotFromVersionRecountsTouchedOnly: statistics live with the
// frozen relations, and a version shares the relations a batch did not
// touch with its predecessor — so after a batch on e, e is recounted and f
// is not.
func TestSnapshotFromVersionRecountsTouchedOnly(t *testing.T) {
	u, err := parser.Parse("e(a,b). e(a,c). e(b,c). f(x,1). f(y,1). f(z,2).\n?- e(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	base, err := engine.NewBase(u.Facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := base.Current()
	s1 := SnapshotFromVersion(v1)
	if e, f := s1.Relations["e"], s1.Relations["f"]; s1.TotalRows != 6 ||
		e.Rows != 3 || e.Columns[0].Distinct != 2 || f.Columns[0].Distinct != 3 || f.Columns[1].Distinct != 2 {
		t.Fatalf("snapshot at epoch 0: %+v", s1)
	}
	assert, err := parser.ParseAtom("e(d,c)")
	if err != nil {
		t.Fatal(err)
	}
	retract, err := parser.ParseAtom("e(a,b)")
	if err != nil {
		t.Fatal(err)
	}
	v2, _, _, err := base.Apply([]ast.Atom{assert}, []ast.Atom{retract})
	if err != nil {
		t.Fatal(err)
	}
	s2 := SnapshotFromVersion(v2)
	if e := s2.Relations["e"]; s2.Epoch != 1 || e.Rows != 3 || e.Columns[0].Distinct != 3 || e.Columns[1].Distinct != 1 {
		t.Fatalf("e after the batch: %+v", e)
	}
	// Same frozen relation, same cached count — not a recount that happens
	// to agree.
	f1, f2 := v1.Relation("f").DistinctCounts(), v2.Relation("f").DistinctCounts()
	if v1.Relation("f") != v2.Relation("f") || &f1[0] != &f2[0] {
		t.Error("f was recounted although the batch did not touch it")
	}
	e1, e2 := v1.Relation("e").DistinctCounts(), v2.Relation("e").DistinctCounts()
	if &e1[0] == &e2[0] || e1[0] != 2 {
		t.Error("e's statistics were not recounted for the new version, or the old version's moved")
	}
}
