// Benchmarks for every experiment in EXPERIMENTS.md, runnable with
//
//	go test -bench . -benchmem
//
// Each BenchmarkE<n> exercises the workload of experiment E<n>; the
// compile-time machinery (adornment, magic, classification, factoring,
// optimization) is benchmarked separately at the bottom, since the paper's
// point is exactly that planning-time work (small) buys evaluation-time
// savings (large).
package factorlog_test

import (
	"fmt"
	"testing"

	"factorlog"
	"factorlog/internal/adorn"
	"factorlog/internal/core"
	"factorlog/internal/counting"
	"factorlog/internal/engine"
	"factorlog/internal/experiments"
	"factorlog/internal/magic"
	"factorlog/internal/optimize"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/topdown"
	"factorlog/internal/workload"
)

// --- E1: three-rule transitive closure --------------------------------------

func benchStrategy(b *testing.B, pl *pipeline.Pipeline, load func() *engine.DB, s pipeline.Strategy) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Run(s, load(), engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_TC(b *testing.B) {
	// The quadratic baselines are capped at n=256 to keep the suite's
	// wall-clock sane; the linear factored program also runs at n=1024.
	sizes := map[pipeline.Strategy][]int{
		pipeline.SemiNaive:         {64, 256},
		pipeline.Magic:             {64, 256},
		pipeline.FactoredOptimized: {64, 256, 1024},
	}
	for _, s := range []pipeline.Strategy{pipeline.SemiNaive, pipeline.Magic, pipeline.FactoredOptimized} {
		for _, n := range sizes[s] {
			pl, load := experiments.E1Pipeline(n)
			b.Run(fmt.Sprintf("%s/n=%d", s, n), func(b *testing.B) {
				benchStrategy(b, pl, load, s)
			})
		}
	}
}

// --- E2: pmem list filtering -------------------------------------------------

func BenchmarkE2_Pmem(b *testing.B) {
	for _, n := range []int{64, 128} {
		pl, load := experiments.E2Setup(n, 1)
		b.Run(fmt.Sprintf("top-down/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topdown.Solve(pl.Program, load(), pl.Query, topdown.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{64, 256, 1024} {
		pl, load := experiments.E2Setup(n, 1)
		b.Run(fmt.Sprintf("factored+opt/n=%d", n), func(b *testing.B) {
			benchStrategy(b, pl, load, pipeline.FactoredOptimized)
		})
	}
}

// --- E3-E5: the class example programs ---------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_SelectionPushing(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4_Symmetric(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5_AnswerPropagating(b *testing.B) {
	benchExperiment(b, "E5")
}

// --- E6: reduction -----------------------------------------------------------

func BenchmarkE6_Reduction(b *testing.B) { benchExperiment(b, "E6") }

// --- E7: counting vs factoring -----------------------------------------------

func BenchmarkE7_CountingVsFactored(b *testing.B) {
	ad, err := adorn.Adorn(parser.MustParseProgram(`
		p(X, Y) :- first1(X, U), p(U, Y), right1(Y).
		p(X, Y) :- first2(X, U), p(U, Y), right2(Y).
		p(X, Y) :- exit(X, Y).
	`), parser.MustParseAtom("p(1, Y)"))
	if err != nil {
		b.Fatal(err)
	}
	cnt, err := counting.Transform(ad)
	if err != nil {
		b.Fatal(err)
	}
	m, err := magic.Transform(ad)
	if err != nil {
		b.Fatal(err)
	}
	fr, err := core.ForceFactorMagic(m)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := optimize.Optimize(fr.Program, optimize.ForFactored(fr, magic.QueryPred, m.Seed.Head.Args))
	if err != nil {
		b.Fatal(err)
	}
	load := func() *engine.DB {
		db := engine.NewDB()
		workload.Section64(db, 14)
		return db
	}
	b.Run("counting/n=14", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Eval(cnt.Program, load(), engine.Options{MaxFacts: 2_000_000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factored/n=14", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Eval(opt.Program, load(), engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E8: separable recursions ------------------------------------------------

func BenchmarkE8_Separable(b *testing.B) {
	p := parser.MustParseProgram(`
		t(X, Y) :- t(X, W), b(W, Y).
		t(X, Y) :- a(X, Z), t(Z, Y).
		t(X, Y) :- e(X, Y).
	`)
	for _, n := range []int{64, 256} {
		pl := pipeline.New(p, parser.MustParseAtom(fmt.Sprintf("t(%d, Y)", n/2)))
		load := func() *engine.DB {
			db := engine.NewDB()
			workload.MultiColumnChain(db, n)
			return db
		}
		for _, s := range []pipeline.Strategy{pipeline.SemiNaive, pipeline.FactoredOptimized} {
			b.Run(fmt.Sprintf("%s/n=%d", s, n), func(b *testing.B) {
				benchStrategy(b, pl, load, s)
			})
		}
	}
}

// --- E9: iterated factoring --------------------------------------------------

func BenchmarkE9_IteratedFactoring(b *testing.B) { benchExperiment(b, "E9") }

// --- E10: same generation ----------------------------------------------------

func BenchmarkE10_SameGeneration(b *testing.B) {
	p := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
	`)
	pl := pipeline.New(p, parser.MustParseAtom("sg(nlllll, Y)"))
	for _, depth := range []int{6, 9} {
		load := func() *engine.DB {
			db := engine.NewDB()
			workload.BalancedTree(db, depth)
			return db
		}
		for _, s := range []pipeline.Strategy{pipeline.SemiNaive, pipeline.Magic} {
			b.Run(fmt.Sprintf("%s/depth=%d", s, depth), func(b *testing.B) {
				benchStrategy(b, pl, load, s)
			})
		}
	}
}

// --- E11: the undecidability reduction's refuter ------------------------------

func BenchmarkE11_Refuter(b *testing.B) {
	p := parser.MustParseProgram(`
		t(X, Y, Z) :- a1(X), q1(Y, Z).
		t(X, Y, Z) :- a2(X), q2(Y, Z).
		q1(Y, Z) :- b1(Y, Z).
		q2(Y, Z) :- b2(Y, Z).
	`)
	query := parser.MustParseAtom("t(X, Y, Z)")
	s := core.Split{Pred: "t", Left: []int{0}, Right: []int{1, 2}, LeftName: "t1", RightName: "t2"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ce, err := core.RefuteSplit(p, query, s, core.RefuteOptions{Trials: 100, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if ce == nil {
			b.Fatal("refuter must find a counterexample")
		}
	}
}

// --- E12: provenance ---------------------------------------------------------

func BenchmarkE12_Provenance(b *testing.B) { benchExperiment(b, "E12") }

// --- Ablations -----------------------------------------------------------------
//
// DESIGN.md calls out two load-bearing design choices; each ablation
// removes one and measures the damage on the E1 workload.

// BenchmarkAblation_NoCleanup evaluates the raw factored program of Fig. 2
// (skipping the Section 5 optimizations): its redundant bt x ft joins undo
// much of the win, which is why the paper always reports post-clean-up
// programs.
func BenchmarkAblation_NoCleanup(b *testing.B) {
	pl, load := experiments.E1Pipeline(256)
	for _, s := range []pipeline.Strategy{pipeline.Factored, pipeline.FactoredOptimized} {
		b.Run(s.String(), func(b *testing.B) {
			benchStrategy(b, pl, load, s)
		})
	}
}

// BenchmarkAblation_NoUniformEquivalence disables uniform-equivalence rule
// deletion in the optimizer. The trade-off is real and measurable: with the
// deletion, the program is smaller (the paper's four-rule form) but goals
// propagate only as answers arrive (one chain step per round); without it,
// the surviving direct magic rule m(W) :- m(X), e(X,W) pushes goals ahead
// of answers and finishes in fewer rounds. The paper optimizes for program
// size and arity; this ablation records the wall-clock consequence.
func BenchmarkAblation_NoUniformEquivalence(b *testing.B) {
	p := parser.MustParseProgram(benchTC3)
	m, err := magic.FromQuery(p, parser.MustParseAtom("t(40, Y)"))
	if err != nil {
		b.Fatal(err)
	}
	fr, err := core.FactorMagic(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	full := optimize.ForFactored(fr, magic.QueryPred, m.Seed.Head.Args)
	noUE := full
	noUE.DisableUniform = true

	load := func() *engine.DB {
		db := engine.NewDB()
		workload.Chain(db, "e", 256)
		return db
	}
	for _, cfg := range []struct {
		name string
		opts optimize.Options
	}{{"with-uniform", full}, {"without-uniform", noUE}} {
		opt, err := optimize.Optimize(fr.Program, cfg.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Eval(opt.Program, load(), engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Compile-time machinery --------------------------------------------------

const benchTC3 = `
	t(X, Y) :- t(X, W), t(W, Y).
	t(X, Y) :- e(X, W), t(W, Y).
	t(X, Y) :- t(X, W), e(W, Y).
	t(X, Y) :- e(X, Y).
`

func BenchmarkTransform_Adorn(b *testing.B) {
	p := parser.MustParseProgram(benchTC3)
	q := parser.MustParseAtom("t(5, Y)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := adorn.Adorn(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransform_Magic(b *testing.B) {
	p := parser.MustParseProgram(benchTC3)
	ad, err := adorn.Adorn(p, parser.MustParseAtom("t(5, Y)"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := magic.Transform(ad); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransform_Classify(b *testing.B) {
	p := parser.MustParseProgram(benchTC3)
	ad, err := adorn.Adorn(p, parser.MustParseAtom("t(5, Y)"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(ad)
		if err != nil {
			b.Fatal(err)
		}
		if core.Classify(a) != core.ClassSelectionPushing {
			b.Fatal("misclassified")
		}
	}
}

func BenchmarkTransform_FullPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := factorlog.Load(benchTC3 + "\n?- t(5, Y).")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Explain(factorlog.FactoredOptimized); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_SemiNaiveTC(b *testing.B) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("chain/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := engine.NewDB()
				workload.Chain(db, "e", n)
				if _, err := engine.Eval(p, db, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelEval measures the parallel stratified evaluator on the
// E1 nonlinear transitive-closure workload, one sub-benchmark per worker
// count. workers=1 is the sequential evaluator (the parallel path's
// baseline — it must not regress); higher counts exercise SCC scheduling,
// sharded semi-naive rounds, and the barrier merge. Speedup needs real
// cores: on a multi-core box workers=4 should beat workers=1 by >=1.5x on
// the n=256 chain; on a single-CPU machine the counts only verify that the
// parallel machinery's overhead stays bounded.
func BenchmarkParallelEval(b *testing.B) {
	p := parser.MustParseProgram(`
		t(X, Y) :- t(X, W), t(W, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- t(X, W), e(W, Y).
		t(X, Y) :- e(X, Y).
	`)
	for _, n := range []int{64, 256} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					db := engine.NewDB()
					workload.Chain(db, "e", n)
					if _, err := engine.Eval(p, db, engine.Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTraceOverhead measures what Options.Trace costs on the semi-naive
// transitive-closure workload. Tracing is meant to be cheap enough to leave
// on in tools (`run -profile`, the server's sampled traces); the off/on
// pair here makes the overhead a number the suite watches — it should stay
// under ~10%.
func BenchmarkTraceOverhead(b *testing.B) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
	for _, cfg := range []struct {
		name  string
		trace bool
	}{{"off", false}, {"on", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := engine.NewDB()
				workload.Chain(db, "e", 256)
				if _, err := engine.Eval(p, db, engine.Options{Trace: cfg.trace}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngine_HashConsing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := engine.NewStore()
		v := s.Nil()
		for j := 0; j < 1000; j++ {
			v = s.Cons(s.Int(j), v)
		}
	}
}
