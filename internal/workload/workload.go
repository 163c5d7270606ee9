package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
)

// Chain loads e(1,2), e(2,3), ..., e(n-1,n).
func Chain(db *engine.DB, pred string, n int) {
	for i := 1; i < n; i++ {
		db.MustInsert(pred, db.Store.Int(i), db.Store.Int(i+1))
	}
}

// Cycle loads a directed n-cycle over 0..n-1.
func Cycle(db *engine.DB, pred string, n int) {
	for i := 0; i < n; i++ {
		db.MustInsert(pred, db.Store.Int(i), db.Store.Int((i+1)%n))
	}
}

// RandomDigraph loads a random digraph over the nodes 0..n-1: m edges drawn
// uniformly from a generator seeded with seed, duplicates collapsed, loaded
// grouped by source node in draw order. The benchmark's mixed.dl draws its
// digraph g the same way, so equal (n, m, seed) give the same rows.
func RandomDigraph(db *engine.DB, pred string, n, m int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	succ := make([][]int, n)
	for i := 0; i < m; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if !slices.Contains(succ[a], b) {
			succ[a] = append(succ[a], b)
		}
	}
	for a, out := range succ {
		for _, b := range out {
			db.MustInsert(pred, db.Store.Int(a), db.Store.Int(b))
		}
	}
}

// BalancedTree loads up/down edges of a complete binary tree of the given
// depth, for the same-generation program: up(child, parent) and
// down(parent, child). flat relates the root's two children (both ways), so
// sg(x, Y) for a node x at depth d finds the depth-d nodes of the opposite
// subtree by climbing d-1 levels, crossing flat, and descending.
func BalancedTree(db *engine.DB, depth int) {
	var walk func(id string, d int)
	walk = func(id string, d int) {
		if d == depth {
			return
		}
		for _, side := range []string{"l", "r"} {
			child := id + side
			db.MustInsert("up", db.Store.Const(child), db.Store.Const(id))
			db.MustInsert("down", db.Store.Const(id), db.Store.Const(child))
			walk(child, d+1)
		}
	}
	walk("n", 0)
	db.MustInsert("flat", db.Store.Const("nl"), db.Store.Const("nr"))
	db.MustInsert("flat", db.Store.Const("nr"), db.Store.Const("nl"))
}

// ListConsts returns the constants x1..xn.
func ListConsts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("x%d", i+1)
	}
	return out
}

// ListTerm builds the ground list [x1, ..., xn] as an ast.Term.
func ListTerm(n int) ast.Term {
	elems := make([]ast.Term, n)
	for i, c := range ListConsts(n) {
		elems[i] = ast.C(c)
	}
	return ast.List(elems...)
}

// PFacts loads p(xj) for every 1-based j in 1..n divisible by every —
// p(x_every), p(x_2every), ... — giving selectivity 1/every; every <= 1
// marks all members.
func PFacts(db *engine.DB, n, every int) {
	if every < 1 {
		every = 1
	}
	for i, c := range ListConsts(n) {
		if (i+1)%every == 0 {
			db.MustInsert("p", db.Store.Const(c))
		}
	}
}

// Example43Regular loads an EDB for the Example 4.3 program that satisfies
// the selection-pushing constraints (r1/r2/r3 contain every e target, l1/l2
// contain every f source and agree): a chain in e plus f shortcuts.
func Example43Regular(db *engine.DB, n int) {
	for i := 1; i < n; i++ {
		ei, ej := db.Store.Int(i), db.Store.Int(i+1)
		db.MustInsert("e", ei, ej)
		db.MustInsert("r1", ej)
		db.MustInsert("r2", ej)
		db.MustInsert("r3", ej)
	}
	for i := 1; i+2 <= n; i += 2 {
		db.MustInsert("f", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("l1", db.Store.Int(i))
		db.MustInsert("l2", db.Store.Int(i))
	}
	// c1/c2: short hops used by the combined rules.
	for i := 1; i < n; i++ {
		db.MustInsert("c1", db.Store.Int(i+1), db.Store.Int(i))
		db.MustInsert("c2", db.Store.Int(i+1), db.Store.Int(i))
	}
	// The query constant must satisfy l1/l2.
	db.MustInsert("l1", db.Store.Int(1))
	db.MustInsert("l2", db.Store.Int(1))
}

// MultiColumnChain loads the EDB for the two-column separable recursion
// t(X,Y) :- t(X,W), b(W,Y) / t(X,Y) :- a(X,Z), t(Z,Y): chains in a and b
// plus diagonal exit facts.
func MultiColumnChain(db *engine.DB, n int) {
	for i := 1; i < n; i++ {
		db.MustInsert("a", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("b", db.Store.Int(i), db.Store.Int(i+1))
	}
	for i := 1; i <= n; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i))
	}
}

// Section64 loads data for the two-first right-linear program of §6.4: two
// interleaved chains with exits and full right filters.
func Section64(db *engine.DB, n int) {
	for i := 1; i < n; i++ {
		db.MustInsert("first1", db.Store.Int(i), db.Store.Int(i+1))
		if i+2 <= n {
			db.MustInsert("first2", db.Store.Int(i), db.Store.Int(i+2))
		}
	}
	for i := 1; i <= n; i++ {
		v := db.Store.Int(i)
		db.MustInsert("exit", v, db.Store.Int(i+1000))
		db.MustInsert("right1", db.Store.Int(i+1000))
		db.MustInsert("right2", db.Store.Int(i+1000))
	}
}

// LayeredJoinProgram returns the source of the join-heavy non-recursive
// family: t1(X,Z) :- s0(X,Y), s1(Y,Z), then tk(X,Z) :- t(k-1)(X,Y), sk(Y,Z)
// up to t<stages>. Every stratum past the first joins an IDB predicate, the
// shape on which the materializing semi-naive evaluator pays each join twice
// (the round-0 cascade derives everything, then the delta round re-joins the
// full relation to find nothing new) while the stratified schedule
// (engine.StreamAuto) pays once.
func LayeredJoinProgram(stages int) string {
	if stages < 1 {
		stages = 1
	}
	var b strings.Builder
	b.WriteString("t1(X, Z) :- s0(X, Y), s1(Y, Z).\n")
	for k := 2; k <= stages; k++ {
		fmt.Fprintf(&b, "t%d(X, Z) :- t%d(X, Y), s%d(Y, Z).\n", k, k-1, k)
	}
	return b.String()
}

// LayeredJoinQuery returns the query atom of the layered join family,
// t<stages>(X, Z): the whole final layer.
func LayeredJoinQuery(stages int) ast.Atom {
	if stages < 1 {
		stages = 1
	}
	return ast.NewAtom(fmt.Sprintf("t%d", stages), ast.V("X"), ast.V("Z"))
}

// LayeredJoins loads the EDB of LayeredJoinProgram: stages+1 binary
// relations s0..s<stages> over the key space 0..n-1, each with n*fanout
// tuples sk(i, (i*7+k+j*11) mod n) for j in 0..fanout-1. fanout is the join
// selectivity knob: fanout 1 gives every probe key exactly one match (the
// high-selectivity variant, |tk| stays n), larger fanouts give every key
// fanout successors so intermediate results multiply (the low-selectivity
// variant). fanout < 1 clamps to 1.
func LayeredJoins(db *engine.DB, stages, n, fanout int) {
	if fanout < 1 {
		fanout = 1
	}
	for k := 0; k <= stages; k++ {
		pred := fmt.Sprintf("s%d", k)
		for i := 0; i < n; i++ {
			for j := 0; j < fanout; j++ {
				db.MustInsert(pred, db.Store.Int(i), db.Store.Int((i*7+k+j*11)%n))
			}
		}
	}
}

// WidePairs loads pred(i mod keys, i) for i in 0..n-1: an n-row binary
// relation whose first column takes keys distinct values, so a constant
// selection on column 0 keeps about n/keys rows. keys near n is the
// high-selectivity variant (a point probe matches one row); small keys is
// the low-selectivity one. keys < 1 clamps to 1 (all rows share one key).
func WidePairs(db *engine.DB, pred string, n, keys int) {
	if keys < 1 {
		keys = 1
	}
	for i := 0; i < n; i++ {
		db.MustInsert(pred, db.Store.Int(i%keys), db.Store.Int(i))
	}
}

// Product loads data for the Example 7.1 program t(X,Y,Z) :- t(X,U,W),
// b(U,Y), d(Z): a b-chain and k d-values, making t's answer set a product.
func Product(db *engine.DB, n, k int) {
	for i := 1; i < n; i++ {
		db.MustInsert("b", db.Store.Int(i), db.Store.Int(i+1))
	}
	for j := 0; j < k; j++ {
		db.MustInsert("d", db.Store.Const(fmt.Sprintf("d%d", j)))
	}
	for i := 1; i <= n; i++ {
		for j := 0; j < k; j++ {
			db.MustInsert("e", db.Store.Int(5), db.Store.Int(i), db.Store.Const(fmt.Sprintf("d%d", j)))
		}
	}
}
