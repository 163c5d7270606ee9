// Package work generates the benchmark's inputs — the mixed.dl server
// program, the four workloads' operation lists — and the oracle that says
// what every response must contain. Nothing here imports the engine: the
// server receives only generated text, and expected answers come from
// graph search and hash joins over a plain-Go mirror of the EDB.
package work

import (
	"fmt"
	"math/rand"
	"strings"
)

// Sizes fixes the EDB of mixed.dl. The shapes follow internal/workload's
// generators (Chain, RandomDigraph, BalancedTree, LayeredJoins).
type Sizes struct {
	ChainN     int // e: chain 1→2→…→ChainN
	GraphN     int // g: random digraph over nodes 0..GraphN-1
	GraphM     int // g: edges drawn (duplicates collapse)
	TreeDepth  int // up/down/flat: complete binary tree
	JoinN      int // s0..s6: key space 0..JoinN-1
	JoinFanout int // successors per key in every s relation
}

// JoinStages is the number of t rules of the layered join (t1..t6 over
// s0..s6).
const JoinStages = 6

// Full is the measured configuration; Smoke runs the same code in seconds.
var (
	Full  = Sizes{ChainN: 4000, GraphN: 1000, GraphM: 3000, TreeDepth: 10, JoinN: 2000, JoinFanout: 2}
	Smoke = Sizes{ChainN: 120, GraphN: 60, GraphM: 180, TreeDepth: 5, JoinN: 64, JoinFanout: 2}
)

// Rules is the IDB of mixed.dl: right-linear transitive closure twice (t
// over the chain e, r over the digraph g — the paper's factorable case),
// same-generation (its non-factorable case), and the layered join.
const Rules = `t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, Z), t(Z, Y).
r(X, Y) :- g(X, Y).
r(X, Y) :- g(X, Z), r(Z, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
t1(X, Z) :- s0(X, Y), s1(Y, Z).
t2(X, Z) :- t1(X, Y), s2(Y, Z).
t3(X, Z) :- t2(X, Y), s3(Y, Z).
t4(X, Z) :- t3(X, Y), s4(Y, Z).
t5(X, Z) :- t4(X, Y), s5(Y, Z).
t6(X, Z) :- t5(X, Y), s6(Y, Z).
`

// EDB mirrors the server's base facts. Mutations applied to the server are
// applied here too, so the oracle always answers over the acknowledged
// state.
type EDB struct {
	Sizes Sizes
	E, G  Graph
	S     [JoinStages + 1]Graph
	// Up maps a tree node to its parent, Down a node to its children, Flat
	// the root's children to each other.
	Up   map[string]string
	Down map[string][]string
	Flat map[string][]string
}

// Graph is a successor-list digraph over the integer nodes 0..len-1.
type Graph [][]int

// Has reports whether the edge a→b is present.
func (g Graph) Has(a, b int) bool {
	for _, x := range g[a] {
		if x == b {
			return true
		}
	}
	return false
}

// Add inserts a→b, reporting whether it was absent.
func (g Graph) Add(a, b int) bool {
	if g.Has(a, b) {
		return false
	}
	g[a] = append(g[a], b)
	return true
}

// Del removes a→b, reporting whether it was present.
func (g Graph) Del(a, b int) bool {
	out := g[a]
	for i, x := range out {
		if x == b {
			out[i] = out[len(out)-1]
			g[a] = out[:len(out)-1]
			return true
		}
	}
	return false
}

// NewEDB builds the base facts for sz; seed draws the digraph's edges.
func NewEDB(sz Sizes, seed int64) *EDB {
	d := &EDB{Sizes: sz, E: make(Graph, sz.ChainN+1), G: make(Graph, sz.GraphN),
		Up: map[string]string{}, Down: map[string][]string{}, Flat: map[string][]string{}}
	for i := 1; i < sz.ChainN; i++ {
		d.E.Add(i, i+1)
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < sz.GraphM; i++ {
		d.G.Add(r.Intn(sz.GraphN), r.Intn(sz.GraphN))
	}
	var walk func(id string, depth int)
	walk = func(id string, depth int) {
		if depth == sz.TreeDepth {
			return
		}
		for _, side := range []string{"l", "r"} {
			child := id + side
			d.Up[child] = id
			d.Down[id] = append(d.Down[id], child)
			walk(child, depth+1)
		}
	}
	walk("n", 0)
	d.Flat["nl"] = []string{"nr"}
	d.Flat["nr"] = []string{"nl"}
	for k := range d.S {
		d.S[k] = make(Graph, sz.JoinN)
		for i := 0; i < sz.JoinN; i++ {
			for j := 0; j < sz.JoinFanout; j++ {
				d.S[k].Add(i, (i*7+k+j*11)%sz.JoinN)
			}
		}
	}
	return d
}

// Program renders mixed.dl: the rules, then every base fact in a fixed
// order. The same (sizes, seed) always yields the same bytes.
func (d *EDB) Program() string {
	var b strings.Builder
	b.WriteString("% mixed.dl — generated by bench/work; do not edit.\n")
	b.WriteString(Rules)
	writeGraph := func(pred string, g Graph) {
		for a, succ := range g {
			for _, c := range succ {
				fmt.Fprintf(&b, "%s(%d,%d).\n", pred, a, c)
			}
		}
	}
	writeGraph("e", d.E)
	writeGraph("g", d.G)
	for _, id := range d.TreeNodes() {
		if p, ok := d.Up[id]; ok {
			fmt.Fprintf(&b, "up(%s,%s).\ndown(%s,%s).\n", id, p, p, id)
		}
	}
	b.WriteString("flat(nl,nr).\nflat(nr,nl).\n")
	for k := range d.S {
		writeGraph(fmt.Sprintf("s%d", k), d.S[k])
	}
	return b.String()
}

// TreeNodes lists the tree's nodes in breadth-first order, root first.
func (d *EDB) TreeNodes() []string {
	nodes := []string{"n"}
	for i := 0; i < len(nodes); i++ {
		nodes = append(nodes, d.Down[nodes[i]]...)
	}
	return nodes
}
