package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests pinning the arena-backed Relation to a trivially
// correct model: a map-based set plus a map per probed column set. Any divergence in
// Insert or Delete return values, Contains, findRow or probeFull answers,
// round stamps, live counts or index-probe result sets over randomized
// tuple streams (duplicate-heavy, with out-of-order round stamps, deletes
// and re-inserts) is a storage-layer bug.

// modelRelation is the reference implementation: the live tuples by key,
// each with the round it was (last) inserted in, and for each column set
// it is probed on, the keys of the live tuples under each projection.
type modelRelation struct {
	live  map[string]int32           // tuple key -> round
	projs map[string]map[string]bool // projKey(cols, projection) -> tuple keys
	cols  [][]int
}

func newModelRelation(cols [][]int) *modelRelation {
	return &modelRelation{live: map[string]int32{}, projs: map[string]map[string]bool{}, cols: cols}
}

// modelKey encodes a tuple as its Val words; projKey prefixes the columns.
func modelKey(tuple []Val) string {
	b := make([]byte, 0, 4*len(tuple))
	for _, v := range tuple {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

func projKey(cols []int, key []Val) string {
	return fmt.Sprint(colMask(cols)) + ":" + modelKey(key)
}

// project returns tuple's values on cols.
func project(tuple []Val, cols []int) []Val {
	key := make([]Val, len(cols))
	for i, c := range cols {
		key[i] = tuple[c]
	}
	return key
}

func (m *modelRelation) insertRound(tuple []Val, round int32) bool {
	k := modelKey(tuple)
	if _, ok := m.live[k]; ok {
		return false
	}
	m.live[k] = round
	for _, cols := range m.cols {
		pk := projKey(cols, project(tuple, cols))
		if m.projs[pk] == nil {
			m.projs[pk] = map[string]bool{}
		}
		m.projs[pk][k] = true
	}
	return true
}

func (m *modelRelation) delete(tuple []Val) bool {
	k := modelKey(tuple)
	if _, ok := m.live[k]; !ok {
		return false
	}
	delete(m.live, k)
	for _, cols := range m.cols {
		delete(m.projs[projKey(cols, project(tuple, cols))], k)
	}
	return true
}

// randTuple draws from a small domain so duplicates and probe collisions
// are common.
func randTuple(rng *rand.Rand, arity, domain int) []Val {
	t := make([]Val, arity)
	for i := range t {
		t[i] = Val(rng.Intn(domain))
	}
	return t
}

// checkProbe compares an index probe of r on cols with the model: the
// postings ascend, and their live rows are exactly the model's tuples with
// that projection (an index keeps the ids of dead rows; round windows
// filter them).
func checkProbe(r *Relation, m *modelRelation, cols []int, key []Val) error {
	want := m.projs[projKey(cols, key)]
	got := r.Probe(cols, key)
	live := 0
	for i, pos := range got {
		if i > 0 && got[i-1] >= pos {
			return fmt.Errorf("probe cols=%v key=%v: postings %v do not ascend", cols, key, got)
		}
		if r.Round(pos) < 0 {
			continue
		}
		live++
		if !want[modelKey(r.Tuple(pos))] {
			return fmt.Errorf("probe cols=%v key=%v returned row %d holding %v, not a live match in the model",
				cols, key, pos, r.Tuple(pos))
		}
	}
	if live != len(want) {
		return fmt.Errorf("probe cols=%v key=%v: %d live rows, model has %d", cols, key, live, len(want))
	}
	return nil
}

// checkMembership compares every membership read of r for tuple with the
// model: Contains, findRow (the row must hold tuple at the model's round)
// and probeFull.
func checkMembership(r *Relation, m *modelRelation, tuple []Val) error {
	round, ok := m.live[modelKey(tuple)]
	if got := r.Contains(tuple); got != ok {
		return fmt.Errorf("Contains(%v) = %v, model %v", tuple, got, ok)
	}
	row, found := r.findRow(tuple)
	if found != ok {
		return fmt.Errorf("findRow(%v) found %v, model %v", tuple, found, ok)
	}
	if found && (!slices.Equal(r.Tuple(row), tuple) || r.Round(row) != round) {
		return fmt.Errorf("findRow(%v) = row %d holding %v at round %d, model round %d",
			tuple, row, r.Tuple(row), r.Round(row), round)
	}
	into := make([]int32, 1)
	if got := r.probeFull(tuple, into); (got != nil) != ok || (got != nil && got[0] != row) {
		return fmt.Errorf("probeFull(%v) = %v, findRow %d/%v", tuple, got, row, found)
	}
	return nil
}

// TestRelationDifferential drives two relations of each arity through one
// random stream of inserts, deletes and re-inserts of deleted tuples, and
// checks both against the model after every step. The indexed relation
// deletes with Delete, leaving tombstones in its membership table and dead
// rows in its arena and postings; the dense one has no index and deletes
// with the dense remove, which moves the last row into the hole and
// repoints its membership slot. Each domain holds thousands of tuples, so
// the tables double many times with tombstones inside their probe chains:
// a lookup that stopped at a tombstone, a growth that kept a dead row or a
// repoint that missed would each show as a wrong answer here. Every run
// draws a fresh seed and a failure prints it.
func TestRelationDifferential(t *testing.T) {
	seed := rand.Int63()
	for _, cfg := range []struct {
		arity, domain, steps int
	}{
		{1, 6000, 12000},
		{2, 64, 12000},
		{3, 14, 12000},
	} {
		t.Run(fmt.Sprintf("arity=%d", cfg.arity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(cfg.arity)))
			step := 0
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			// Declare some indexes up front and one mid-stream, covering
			// lazily built and incrementally maintained paths.
			indexCols := [][]int{{0}}
			if cfg.arity >= 2 {
				indexCols = append(indexCols, []int{1}, []int{0, 1})
			}
			rel, dense := NewRelation(cfg.arity), NewRelation(cfg.arity)
			for _, cols := range indexCols {
				rel.ensureIndex(cols)
			}
			model := newModelRelation(append(slices.Clone(indexCols), []int{cfg.arity - 1}))
			rows := 0           // arena rows the model expects rel to hold, dead ones included
			var deleted [][]Val // tuples deleted so far, drawn from for re-inserts

			for ; step < cfg.steps; step++ {
				// Rounds arrive out of order: semi-naive evaluation stamps
				// monotonically, but the storage layer must not rely on it.
				round := int32(rng.Intn(7))
				var tuple []Val
				insert := true
				switch op := rng.Intn(20); {
				case op < 11 || rel.Len() == 0:
					tuple = randTuple(rng, cfg.arity, cfg.domain)
				case op < 14 && len(deleted) > 0:
					tuple = slices.Clone(deleted[rng.Intn(len(deleted))])
				default:
					insert = false
					// Delete a tuple some arena row holds, live or dead.
					tuple = slices.Clone(rel.Tuple(int32(rng.Intn(rel.Len()))))
					want := model.delete(tuple)
					if got := rel.Delete(tuple); got != want {
						fail("Delete(%v) = %v, model %v", tuple, got, want)
					}
					if got := dense.remove(tuple); got != want {
						fail("dense remove(%v) = %v, model %v", tuple, got, want)
					}
					if want {
						deleted = append(deleted, tuple)
					}
				}
				if insert {
					want := model.insertRound(tuple, round)
					if got := rel.InsertRound(tuple, round); got != want {
						fail("insert %v round %d: got %v, model %v", tuple, round, got, want)
					}
					if got := dense.InsertRound(tuple, round); got != want {
						fail("dense insert %v round %d: got %v, model %v", tuple, round, got, want)
					}
					if want {
						rows++
					}
					// Mutating the caller's slice must not affect the relation.
					kept := slices.Clone(tuple)
					for j := range tuple {
						tuple[j] = -99
					}
					tuple = kept
				}

				if step == cfg.steps/2 && cfg.arity >= 2 {
					rel.ensureIndex([]int{cfg.arity - 1})
					indexCols = append(indexCols, []int{cfg.arity - 1})
				}

				// Check the tuple just touched and a random one.
				probe := randTuple(rng, cfg.arity, cfg.domain)
				for _, r := range []*Relation{rel, dense} {
					for _, tup := range [][]Val{tuple, probe} {
						if err := checkMembership(r, model, tup); err != nil {
							fail("%v", err)
						}
					}
					if r.Live() != len(model.live) {
						fail("Live = %d, model has %d", r.Live(), len(model.live))
					}
				}
				if rel.Len() != rows || dense.Len() != len(model.live) {
					fail("Len = %d and dense %d, model %d arena rows and %d facts",
						rel.Len(), dense.Len(), rows, len(model.live))
				}
				for _, cols := range indexCols {
					if err := checkProbe(rel, model, cols, project(probe, cols)); err != nil {
						fail("%v", err)
					}
				}
			}
			// The stream must have done what it is for: many deletes, tables
			// grown past a few doublings, and tombstones still in them.
			for _, ts := range []*tupleSet{&rel.present, &dense.present} {
				if len(deleted) < cfg.steps/10 || len(ts.slots) < 2048 || ts.used-ts.n < 50 {
					fail("%d deletes, %d slots holding %d tombstones: too few to test growth and tombstones",
						len(deleted), len(ts.slots), ts.used-ts.n)
				}
			}

			// Full sweep: every live row of either relation is a model fact
			// at its stamp and is found at its own row, and the dense
			// relation holds no dead row.
			for _, r := range []*Relation{rel, dense} {
				for pos := int32(0); pos < int32(r.Len()); pos++ {
					if r.Round(pos) < 0 {
						if r == dense {
							fail("dense relation holds a dead row at %d", pos)
						}
						continue
					}
					tup := r.Tuple(pos)
					round, ok := model.live[modelKey(tup)]
					if !ok || round != r.Round(pos) {
						fail("row %d holds %v at round %d; model has it: %v at round %d", pos, tup, r.Round(pos), ok, round)
					}
					if row, _ := r.findRow(tup); row != pos {
						fail("findRow(%v) = %d, want its row %d", tup, row, pos)
					}
				}
			}
		})
	}
}

// TestRelationFrozenProbeRace hammers a frozen relation's read paths
// (Contains and probeFrozen) from 8 goroutines while checking results, the
// regime parallel rounds run in. Under -race this pins the claim that the
// arena design removed all shared probe scratch.
func TestRelationFrozenProbeRace(t *testing.T) {
	const n = 4096
	rel := NewRelation(2)
	for i := 0; i < n; i++ {
		rel.Insert([]Val{Val(i / 8), Val(i)})
	}
	rel.ensureIndex([]int{0})
	rel.ensureIndex([]int{1})

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			probe := make([]Val, 2)
			key := make([]Val, 1)
			for i := 0; i < 20000; i++ {
				x := (i*31 + g*977) % n
				probe[0], probe[1] = Val(x/8), Val(x)
				if !rel.Contains(probe) {
					done <- fmt.Errorf("goroutine %d: missing %v", g, probe)
					return
				}
				probe[1] = Val(n + x)
				if rel.Contains(probe) {
					done <- fmt.Errorf("goroutine %d: phantom %v", g, probe)
					return
				}
				key[0] = Val(x / 8)
				if got := len(rel.probeFrozen([]int{0}, key)); got != 8 {
					done <- fmt.Errorf("goroutine %d: probe col0 %v returned %d rows, want 8", g, key, got)
					return
				}
				key[0] = Val(x)
				if got := len(rel.probeFrozen([]int{1}, key)); got != 1 {
					done <- fmt.Errorf("goroutine %d: probe col1 %v returned %d rows, want 1", g, key, got)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
