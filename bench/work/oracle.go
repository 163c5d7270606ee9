package work

import "strconv"

// The oracle answers the benchmark's query shapes without the engine:
// breadth-first search for the two closures, the recursive definition of
// same-generation walked over the tree maps, and a stage-by-stage hash join
// for the layered join. It returns nodes; Digest* reduce them to what a
// response is compared with, Render* to the strings /query would print,
// "(v1,...,vk)" over the query's free positions.

// Reach answers t(k,Y) or r(k,Y): every node reachable from k by one or
// more edges of g.
func Reach(g Graph, k int) []int {
	seen := make([]bool, len(g))
	var out []int
	for frontier := []int{k}; len(frontier) > 0; frontier = frontier[1:] {
		for _, y := range g[frontier[0]] {
			if !seen[y] {
				seen[y] = true
				out = append(out, y)
				frontier = append(frontier, y)
			}
		}
	}
	return out
}

// ReachBack answers r(X,k): every node with a path of one or more edges
// to k.
func ReachBack(g Graph, k int) []int {
	rev := make(Graph, len(g))
	for a, succ := range g {
		for _, b := range succ {
			rev[b] = append(rev[b], a)
		}
	}
	return Reach(rev, k)
}

// SameGen answers sg(x,Y) from the program's own definition:
// sg(x) = flat(x) ∪ down(sg(up(x))). The tree is finite and up strictly
// climbs, so the recursion ends at the root.
func (d *EDB) SameGen(x string) []string {
	out := append([]string(nil), d.Flat[x]...)
	if p, ok := d.Up[x]; ok {
		for _, v := range d.SameGen(p) {
			out = append(out, d.Down[v]...)
		}
	}
	return out
}

// Join answers t<stage>(k,Z): the keys reached from k through s0…s<stage>.
func (d *EDB) Join(stage, k int) []int {
	cur := []int{k}
	seen := make([]int, d.Sizes.JoinN) // seen[y] == s+1: y already reached at stage s
	for s := 0; s <= stage; s++ {
		var next []int
		for _, x := range cur {
			for _, y := range d.S[s][x] {
				if seen[y] != s+1 {
					seen[y] = s + 1
					next = append(next, y)
				}
			}
		}
		cur = next
	}
	return cur
}

// JoinAll answers t<stage>(X,Z): every (x,z) pair of the stage.
func (d *EDB) JoinAll(stage int) [][2]int {
	var out [][2]int
	for x := 0; x < d.Sizes.JoinN; x++ {
		for _, z := range d.Join(stage, x) {
			out = append(out, [2]int{x, z})
		}
	}
	return out
}

// Expected is an answer set reduced to what the client compares per
// response: how many answers, and the order-free sum of their hashes.
type Expected struct {
	Count int
	Sum   uint64
}

// add folds one rendered answer into e.
func (e *Expected) add(answer []byte) {
	e.Count++
	e.Sum += hashAnswer(answer)
}

// hashAnswer is FNV-1a, inlined so that digesting never allocates.
func hashAnswer(a []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range a {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// DigestInts digests one-column integer answers, "(v)".
func DigestInts(vs []int) Expected {
	var e Expected
	var buf [24]byte
	for _, v := range vs {
		e.add(append(strconv.AppendInt(append(buf[:0], '('), int64(v), 10), ')'))
	}
	return e
}

// DigestPairs digests two-column integer answers, "(x,z)".
func DigestPairs(ps [][2]int) Expected {
	var e Expected
	var buf [48]byte
	for _, p := range ps {
		b := strconv.AppendInt(append(buf[:0], '('), int64(p[0]), 10)
		e.add(append(strconv.AppendInt(append(b, ','), int64(p[1]), 10), ')'))
	}
	return e
}

// DigestNames digests one-column symbolic answers, "(name)".
func DigestNames(names []string) Expected {
	var e Expected
	var buf []byte
	for _, n := range names {
		buf = append(append(append(buf[:0], '('), n...), ')')
		e.add(buf)
	}
	return e
}

// DigestRendered digests answers already rendered as /query prints them.
func DigestRendered(answers []string) Expected {
	var e Expected
	for _, a := range answers {
		e.add([]byte(a))
	}
	return e
}

// ScanAnswers digests the "answers" array of a /query response body without
// decoding it: raw is the array's JSON text, whose elements are plain
// strings (answers never need escaping — constants are digits and letters).
func ScanAnswers(raw []byte) Expected {
	var e Expected
	for i := 0; i < len(raw); i++ {
		if raw[i] != '"' {
			continue
		}
		j := i + 1
		for j < len(raw) && raw[j] != '"' {
			j++
		}
		e.add(raw[i+1 : j])
		i = j
	}
	return e
}
