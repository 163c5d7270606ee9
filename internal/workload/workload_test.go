package workload

import (
	"strings"
	"testing"

	"factorlog/internal/engine"
)

func TestChain(t *testing.T) {
	db := engine.NewDB()
	Chain(db, "e", 10)
	if db.Count("e") != 9 {
		t.Errorf("|e| = %d", db.Count("e"))
	}
}

func TestCycle(t *testing.T) {
	db := engine.NewDB()
	Cycle(db, "e", 7)
	if db.Count("e") != 7 {
		t.Errorf("|e| = %d", db.Count("e"))
	}
}

func TestRandomDigraph(t *testing.T) {
	a, b := engine.NewDB(), engine.NewDB()
	RandomDigraph(a, "g", 50, 120, 7)
	RandomDigraph(b, "g", 50, 120, 7)
	if n := a.Count("g"); n == 0 || n > 120 || n != b.Count("g") {
		t.Fatalf("|g| = %d and %d from one seed, want equal and in 1..120", n, b.Count("g"))
	}
	ra, rb := a.Lookup("g"), b.Lookup("g")
	for pos := int32(0); pos < int32(ra.Len()); pos++ {
		x, y := ra.Tuple(pos), rb.Tuple(pos)
		if a.Store.String(x[0]) != b.Store.String(y[0]) || a.Store.String(x[1]) != b.Store.String(y[1]) {
			t.Fatalf("row %d differs between two loads of one seed", pos)
		}
	}
}

func TestBalancedTree(t *testing.T) {
	db := engine.NewDB()
	BalancedTree(db, 3)
	// Complete binary tree of depth 3: 2+4+8 = 14 edges each way.
	if db.Count("up") != 14 || db.Count("down") != 14 {
		t.Errorf("up=%d down=%d", db.Count("up"), db.Count("down"))
	}
	if db.Count("flat") != 2 { // root children, both directions
		t.Errorf("flat=%d", db.Count("flat"))
	}
}

func TestListHelpers(t *testing.T) {
	if got := ListTerm(3).String(); got != "[x1,x2,x3]" {
		t.Errorf("ListTerm = %s", got)
	}
	db := engine.NewDB()
	PFacts(db, 10, 2)
	if db.Count("p") != 5 {
		t.Errorf("|p| = %d", db.Count("p"))
	}
	db2 := engine.NewDB()
	PFacts(db2, 10, 0) // clamps to every=1
	if db2.Count("p") != 10 {
		t.Errorf("|p| = %d", db2.Count("p"))
	}
	if len(ListConsts(4)) != 4 || ListConsts(4)[3] != "x4" {
		t.Error("ListConsts wrong")
	}
}

func TestExample43Regular(t *testing.T) {
	db := engine.NewDB()
	Example43Regular(db, 10)
	if db.Count("e") != 9 || db.Count("r1") != 9 || db.Count("l1") == 0 {
		t.Errorf("counts: e=%d r1=%d l1=%d", db.Count("e"), db.Count("r1"), db.Count("l1"))
	}
}

func TestMultiColumnChain(t *testing.T) {
	db := engine.NewDB()
	MultiColumnChain(db, 6)
	if db.Count("a") != 5 || db.Count("b") != 5 || db.Count("e") != 6 {
		t.Errorf("counts wrong: a=%d b=%d e=%d", db.Count("a"), db.Count("b"), db.Count("e"))
	}
}

func TestSection64(t *testing.T) {
	db := engine.NewDB()
	Section64(db, 5)
	if db.Count("first1") != 4 || db.Count("exit") != 5 || db.Count("right1") != 5 {
		t.Errorf("counts wrong")
	}
}

func TestLayeredJoins(t *testing.T) {
	db := engine.NewDB()
	LayeredJoins(db, 3, 10, 1)
	for k := 0; k <= 3; k++ {
		pred := "s" + string(rune('0'+k))
		if db.Count(pred) != 10 {
			t.Errorf("|%s| = %d, want 10", pred, db.Count(pred))
		}
	}
	// fanout multiplies rows per key.
	db2 := engine.NewDB()
	LayeredJoins(db2, 1, 10, 3)
	if db2.Count("s0") != 30 {
		t.Errorf("|s0| with fanout 3 = %d, want 30", db2.Count("s0"))
	}

	prog := LayeredJoinProgram(3)
	for _, want := range []string{
		"t1(X, Z) :- s0(X, Y), s1(Y, Z).",
		"t3(X, Z) :- t2(X, Y), s3(Y, Z).",
	} {
		if !strings.Contains(prog, want) {
			t.Errorf("program missing %q:\n%s", want, prog)
		}
	}
	if q := LayeredJoinQuery(3).String(); q != "t3(X,Z)" {
		t.Errorf("query = %s", q)
	}
}

func TestWidePairs(t *testing.T) {
	db := engine.NewDB()
	WidePairs(db, "wide", 100, 10)
	if db.Count("wide") != 100 {
		t.Errorf("|wide| = %d", db.Count("wide"))
	}
	// keys clamps to 1: all rows share the key, still distinct on col1.
	db2 := engine.NewDB()
	WidePairs(db2, "wide", 50, 0)
	if db2.Count("wide") != 50 {
		t.Errorf("|wide| = %d", db2.Count("wide"))
	}
}

func TestProduct(t *testing.T) {
	db := engine.NewDB()
	Product(db, 4, 3)
	if db.Count("b") != 3 || db.Count("d") != 3 || db.Count("e") != 12 {
		t.Errorf("counts: b=%d d=%d e=%d", db.Count("b"), db.Count("d"), db.Count("e"))
	}
}
