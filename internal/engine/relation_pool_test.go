package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// indexSet returns the published indexes keyed by column mask.
func (r *Relation) indexSet() map[uint32]*index {
	out := map[uint32]*index{}
	for _, ix := range r.indexList() {
		out[ix.mask] = ix
	}
	return out
}

// probeFrozen probes the planned index on cols read-only, as a parallel
// worker's join does.
func (r *Relation) probeFrozen(cols []int, key []Val) []int32 {
	faultinject.Hit(faultinject.IndexProbe)
	return r.plannedIndex(cols).probe(r, key)
}

// scanKey returns, ascending, every arena row (dead ones included, as an
// index keeps them) whose projection on cols equals key.
func scanKey(r *Relation, cols []int, key []Val) []int32 {
	var out []int32
	for row := int32(0); row < int32(r.Len()); row++ {
		if r.rowMatchesKey(row, cols, key) {
			out = append(out, row)
		}
	}
	return out
}

// TestPostingsPool drives indexed relations through random inserts,
// deletes and re-inserts — indexes built over existing rows and grown row
// by row, buckets that move to the end of the pool and buckets that grow
// in place — and checks every probe against a scan of the arena. Postings
// slices taken along the way must keep their contents however many rows
// arrive after them: the round-0 cascade scans a bucket of the relation it
// inserts into.
func TestPostingsPool(t *testing.T) {
	seed := rand.Int63()
	rng := rand.New(rand.NewSource(seed))
	colSets := [][]int{{0}, {1}, {0, 2}}
	for trial := 0; trial < 20; trial++ {
		r := NewRelation(3)
		keys := 1 + rng.Intn(40)
		type held struct {
			cols      []int
			key, want []int32
		}
		var snapshots []held
		randTuple := func() []Val {
			return []Val{Val(rng.Intn(keys)), Val(rng.Intn(keys)), Val(rng.Intn(3))}
		}
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				r.Insert(randTuple())
			case op < 8:
				r.Delete(randTuple())
			case op == 8:
				r.ensureIndex(colSets[rng.Intn(len(colSets))])
			default:
				cols := colSets[rng.Intn(len(colSets))]
				if !r.HasIndex(cols) || r.Len() == 0 {
					continue
				}
				tuple := r.Tuple(int32(rng.Intn(r.Len())))
				key := make([]Val, len(cols))
				for i, c := range cols {
					key[i] = tuple[c]
				}
				got := r.Probe(cols, key)
				snapshots = append(snapshots, held{cols, got, slices.Clone(got)})
			}
			if step%50 != 49 {
				continue
			}
			for _, ix := range r.indexList() {
				for v := 0; v < keys; v++ {
					key := make([]Val, len(ix.cols))
					for i := range key {
						key[i] = Val((v + i) % keys)
					}
					if got, want := ix.probe(r, key), scanKey(r, ix.cols, key); !slices.Equal(got, want) {
						t.Fatalf("seed %d: probe %v = %v on cols %v, a scan finds %v", seed, key, got, ix.cols, want)
					}
				}
			}
		}
		for i, h := range snapshots {
			if !slices.Equal(h.key, h.want) {
				t.Fatalf("seed %d: postings slice %d on cols %v changed from %v to %v after later inserts",
					seed, i, h.cols, h.want, h.key)
			}
		}
	}
}

// TestIndexBuildMatchesIncremental: an index built over existing rows in
// one go probes exactly like one grown row by row, and retains a slot
// table of the same size.
func TestIndexBuildMatchesIncremental(t *testing.T) {
	for _, n := range []int{0, 1, 13, 500, 4000} {
		built, grown := NewRelation(2), NewRelation(2)
		grown.ensureIndex([]int{0})
		for i := 0; i < n; i++ {
			tuple := []Val{Val(i % 37), Val(i)}
			built.Insert(tuple)
			grown.Insert(tuple)
		}
		bix := built.ensureIndex([]int{0})
		gix := grown.lookupIndex(colMask([]int{0}))
		if len(bix.slots) != len(gix.slots) || len(bix.buckets) != len(gix.buckets) {
			t.Errorf("n=%d: built index has %d slots and %d keys, grown %d and %d",
				n, len(bix.slots), len(bix.buckets), len(gix.slots), len(gix.buckets))
		}
		for k := 0; k < 40; k++ {
			key := []Val{Val(k)}
			if got, want := bix.probe(built, key), gix.probe(grown, key); !slices.Equal(got, want) {
				t.Fatalf("n=%d key %d: built %v, grown %v", n, k, got, want)
			}
		}
	}
}

// TestCountDistinctMatchesMap checks the open-addressed distinct count
// against a map over the live rows, with dead rows and with Vals from a
// child store's range (1<<30 and up).
func TestCountDistinctMatchesMap(t *testing.T) {
	seed := rand.Int63()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 50; trial++ {
		arity := 1 + rng.Intn(3)
		r := NewRelation(arity)
		n := rng.Intn(3000)
		spread := 1 + rng.Intn(500)
		val := func() Val {
			v := Val(rng.Intn(spread))
			if rng.Intn(3) == 0 {
				v += childBase
			}
			return v
		}
		for i := 0; i < n; i++ {
			tuple := make([]Val, arity)
			for c := range tuple {
				tuple[c] = val()
			}
			r.Insert(tuple)
			if rng.Intn(4) == 0 && r.Len() > 0 {
				r.Delete(r.Tuple(int32(rng.Intn(r.Len()))))
			}
		}
		want := make([]int, arity)
		for c := range want {
			seen := map[Val]bool{}
			for row := int32(0); row < int32(r.Len()); row++ {
				if r.Round(row) >= 0 {
					seen[r.Tuple(row)[c]] = true
				}
			}
			want[c] = len(seen)
		}
		if got := r.countDistinct(); !slices.Equal(got, want) {
			t.Fatalf("seed %d trial %d: countDistinct = %v, a map counts %v", seed, trial, got, want)
		}
	}
}

// TestMaterializeAllocsFlatInWaves: a materialization build allocates the
// same whatever the number of its insertion waves. The factored chain
// closure over a chain of n nodes runs about n waves; the build at reach
// 400 may allocate more than at reach 100 only by the few doublings of its
// arenas, tables and run tables — not once per wave, as a delta map
// reallocated every wave would.
func TestMaterializeAllocsFlatInWaves(t *testing.T) {
	prog := parser.MustParseProgram(chainRewrites["factored+opt"])
	allocs := func(n int) (float64, int) {
		b, err := NewBase(chainFacts(t, n), 0)
		if err != nil {
			t.Fatal(err)
		}
		v := b.Current()
		waves := 0
		a := testing.AllocsPerRun(5, func() {
			m, err := MaterializeVersion(context.Background(), prog, v, MaterializeOptions{}, "query")
			if err != nil {
				t.Fatal(err)
			}
			waves = m.DB().Count("m_t_bf")
		})
		return a, waves
	}
	small, smallWaves := allocs(100)
	large, largeWaves := allocs(400)
	if largeWaves < 4*smallWaves-4 {
		t.Fatalf("the builds reach %d and %d nodes, want about 100 and 400", smallWaves, largeWaves)
	}
	// A doubling of each of three relations' six growing arrays is about 18
	// allocations, and 400/100 is two doublings: 36 in all, well under one
	// allocation per four waves. A map allocated per wave costs two or more.
	if extra := large - small; extra > float64(largeWaves-smallWaves)/4 {
		t.Errorf("allocations per build grew from %.0f at reach %d to %.0f at reach %d: %.2f per extra wave",
			small, smallWaves, large, largeWaves, extra/float64(largeWaves-smallWaves))
	}
}

// TestFullKeyProbeBuildsNoIndex: a literal bound on every column probes the
// membership table — under Eval, a materialization build and its
// maintenance — so no index is planned, built or maintained for it, while
// the answers and probe counts are those of an index probe.
func TestFullKeyProbeBuildsNoIndex(t *testing.T) {
	prog := parser.MustParseProgram(`
		both(X,Y) :- e(X,Y), f(X,Y).
		mark(Y) :- e(X,Y), seen(Y).
		seen(Y) :- f(X,Y).`)
	var facts []ast.Atom
	for i := 0; i < 30; i++ {
		facts = append(facts, atom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
		if i%3 == 0 {
			facts = append(facts, atom(t, fmt.Sprintf("f(%d,%d)", i, i+1)))
		}
	}
	db := NewDB()
	if err := LoadFacts(db, facts); err != nil {
		t.Fatal(err)
	}
	res, err := Eval(prog, db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Count("both"); got != 10 {
		t.Errorf("both has %d facts, want 10", got)
	}
	if got := db.Count("mark"); got != 10 {
		t.Errorf("mark has %d facts, want 10", got)
	}
	// A scan of e's 30 rows and one hit in f for each of the 10 shared
	// tuples, as an index on both of f's columns would give.
	if p := res.Stats.Rules[0].JoinProbes; p != 30+10 {
		t.Errorf("both's rule made %d join probes, want 40", p)
	}
	if db.Lookup("f").HasIndex([]int{0, 1}) || db.Lookup("seen").HasIndex([]int{0}) {
		t.Error("a full-key probe built an index")
	}

	m, err := Materialize(prog, facts, MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), []ast.Atom{atom(t, "f(1,2)")}, []ast.Atom{atom(t, "f(3,4)")}); err != nil {
		t.Fatal(err)
	}
	mdb := m.DB()
	if got, want := mdb.Count("both"), 10; got != want {
		t.Errorf("materialized both has %d facts, want %d", got, want)
	}
	if mdb.Lookup("f").HasIndex([]int{0, 1}) || mdb.Lookup("seen").HasIndex([]int{0}) {
		t.Error("a materialization built an index for a full-key probe")
	}
}
