package stream

import (
	"fmt"
	"strings"
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// layeredJoinProgram builds the workload the streaming executor exists for:
// a chain of non-recursive strata t1..tK, each joining the previous layer
// against a fresh EDB relation. Every ti body mentions an IDB predicate, so
// the materializing semi-naive evaluator pays the full join twice per
// stratum (the round-0 cascade derives everything; the round-1 delta pass
// re-joins the complete relation to discover nothing is new), while the
// streaming executor runs each body exactly once.
func layeredJoinProgram(stages int) string {
	var b strings.Builder
	b.WriteString("t1(X, Z) :- s0(X, Y), s1(Y, Z).\n")
	for k := 2; k <= stages; k++ {
		fmt.Fprintf(&b, "t%d(X, Z) :- t%d(X, Y), s%d(Y, Z).\n", k, k-1, k)
	}
	return b.String()
}

func layeredJoinDB(stages, n int) *engine.DB {
	db := engine.NewDB()
	for k := 0; k <= stages; k++ {
		pred := fmt.Sprintf("s%d", k)
		for i := 0; i < n; i++ {
			db.MustInsert(pred, db.Store.Int(i), db.Store.Int((i*7+k)%n))
		}
	}
	return db
}

// BenchmarkLayeredJoins compares the two executors on the layered
// non-recursive workload; the engine-vs-stream delta here is the package's
// reason to exist (bench/ tracks the same pair as stream.eval_ms.join_magic
// vs engine.eval_ms.join_magic; docs/history/BENCH_5.json is the snapshot
// from when the executor landed).
func BenchmarkLayeredJoins(b *testing.B) {
	const stages, n = 6, 2000
	prog := parser.MustParseProgram(layeredJoinProgram(stages))
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := layeredJoinDB(stages, n)
			b.StartTimer()
			if _, err := engine.Eval(prog, db, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := layeredJoinDB(stages, n)
			b.StartTimer()
			if _, err := Eval(prog, db, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectivePoint measures the constant-pushdown path: a point
// query over a wide EDB, where the streamed scan filters inline.
func BenchmarkSelectivePoint(b *testing.B) {
	prog := parser.MustParseProgram(`hit(Y) :- wide(500, Y).`)
	mk := func() *engine.DB {
		db := engine.NewDB()
		for i := 0; i < 20000; i++ {
			db.MustInsert("wide", db.Store.Int(i%1000), db.Store.Int(i))
		}
		return db
	}
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := mk()
			b.StartTimer()
			if _, err := engine.Eval(prog, db, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := mk()
			b.StartTimer()
			if _, err := Eval(prog, db, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestLayeredJoinSpeedupSanity guards the benchmark's premise without
// timing anything: the streamed run must do roughly half the join probes of
// the materializing run on the layered workload.
func TestLayeredJoinSpeedupSanity(t *testing.T) {
	const stages, n = 4, 300
	prog := parser.MustParseProgram(layeredJoinProgram(stages))

	dbEng := layeredJoinDB(stages, n)
	resEng, err := engine.Eval(prog, dbEng, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	dbStr := layeredJoinDB(stages, n)
	resStr, err := Eval(prog, dbStr, engine.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	diffRelations(t, relationSets(dbEng), relationSets(dbStr))

	probesEng, probesStr := 0, 0
	for _, rs := range resEng.Stats.Rules {
		probesEng += rs.JoinProbes
	}
	for _, rs := range resStr.Stats.Rules {
		probesStr += rs.JoinProbes
	}
	if probesStr*3 > probesEng*2 {
		t.Errorf("streamed probes = %d, materialized = %d: expected well under 2/3", probesStr, probesEng)
	}
}
