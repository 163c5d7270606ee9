package engine

import (
	"fmt"
	"testing"
)

// Benchmarks for the relation storage layer: the semi-naive hot path is
// dominated by Insert (dedup + index maintenance) and Probe (index lookup),
// so these two are tracked with -benchmem. EXPERIMENTS.md quotes their
// allocs/op before and after the columnar-arena rewrite
// (docs/history/BENCH_3.json is the snapshot taken then).

// benchTuples returns n distinct 2-tuples with clustered first columns, so
// column-0 index postings have realistic multi-entry buckets.
func benchTuples(n int) [][]Val {
	out := make([][]Val, n)
	for i := range out {
		out[i] = []Val{Val(i / 8), Val(i)}
	}
	return out
}

func BenchmarkRelationInsert(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		tuples := benchTuples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRelation(2)
				for _, t := range tuples {
					r.Insert(t)
				}
			}
		})
	}
}

// BenchmarkRelationInsertDup measures the duplicate-heavy regime (every
// tuple inserted twice): the second insert is a pure membership probe, the
// path the fixpoint's re-derivations hit.
func BenchmarkRelationInsertDup(b *testing.B) {
	tuples := benchTuples(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRelation(2)
		for _, t := range tuples {
			r.Insert(t)
		}
		for _, t := range tuples {
			r.Insert(t)
		}
	}
}

func BenchmarkRelationProbe(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		r := NewRelation(2)
		for _, t := range benchTuples(n) {
			r.Insert(t)
		}
		key := []Val{0}
		r.Probe([]int{0}, key) // build the index outside the loop
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				key[0] = Val(i % (n / 8))
				hits += len(r.Probe([]int{0}, key))
			}
			if hits == 0 {
				b.Fatal("probe found nothing")
			}
		})
	}
}

func BenchmarkRelationContains(b *testing.B) {
	n := 16384
	r := NewRelation(2)
	for _, t := range benchTuples(n) {
		r.Insert(t)
	}
	probe := []Val{0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		probe[0], probe[1] = Val((i%n)/8), Val(i%n)
		if r.Contains(probe) {
			hits++
		}
	}
	if hits == 0 {
		b.Fatal("contains found nothing")
	}
}

// BenchmarkEnsureIndex builds a column-0 index over the rows a relation
// already holds — a base relation's first probe, or a version's rebuilt
// index after a batch — on one stage of workload.LayeredJoins(6, 2000, 2):
// 4,000 rows, 2,000 keys of two rows each. The build cuts every key's
// postings from one pool, so its allocations do not grow with the keys.
func BenchmarkEnsureIndex(b *testing.B) {
	r := NewRelation(2)
	for i := 0; i < 4000; i++ {
		r.Insert([]Val{Val(i / 2), Val(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.indexes.Store(nil)
		r.ensureIndex([]int{0})
	}
}
