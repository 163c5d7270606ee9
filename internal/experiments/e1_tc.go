package experiments

import (
	"fmt"
	"strings"

	"factorlog/internal/engine"
	"factorlog/internal/optimize"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/workload"
)

// tc3Src is the three-rule transitive closure of Examples 1.1/4.2.
const tc3Src = `
	t(X, Y) :- t(X, W), t(W, Y).
	t(X, Y) :- e(X, W), t(W, Y).
	t(X, Y) :- t(X, W), e(W, Y).
	t(X, Y) :- e(X, Y).
`

func init() {
	register(Experiment{ID: "E1", Title: "three-rule transitive closure: Figs. 1-2, Ex. 5.3, arity reduction", Run: runE1})
	register(Experiment{ID: "E1b", Title: "transitive closure scaling: facts vs n (chain, mid query)", Run: runE1b})
}

// runE1 verifies the golden programs (Fig. 1, Fig. 2, the final unary
// program) and reports one strategy comparison at a fixed size.
func runE1() (*Table, error) {
	p := parser.MustParseProgram(tc3Src)
	query := parser.MustParseAtom("t(40, Y)")
	pl := pipeline.New(p, query)

	// Golden checks.
	m, err := pl.MagicProgram()
	if err != nil {
		return nil, err
	}
	// Fig. 1 with the paper's seed constant replaced by this query's.
	fig1 := parser.MustParseProgram(replaceConst(`
		m_t_bf(5).
		m_t_bf(W) :- m_t_bf(X), t_bf(X, W).
		m_t_bf(W) :- m_t_bf(X), e(X, W).
		t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), t_bf(W, Y).
		t_bf(X, Y) :- m_t_bf(X), e(X, W), t_bf(W, Y).
		t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), e(W, Y).
		t_bf(X, Y) :- m_t_bf(X), e(X, Y).
		query(Y) :- t_bf(5, Y).
	`, "5", "40"))
	fig1OK := m.Program.Canonical() == fig1.Canonical()

	opt, err := pl.OptimizedProgram()
	if err != nil {
		return nil, err
	}
	final := parser.MustParseProgram(`
		m_t_bf(W) :- ft(W).
		m_t_bf(40).
		ft(Y) :- m_t_bf(X), e(X, Y).
		query(Y) :- ft(Y).
	`)
	finalOK := opt.Program.Canonical() == final.Canonical()

	t := &Table{
		ID:     "E1",
		Title:  "three-rule TC, chain(120), query t(40,Y)",
		Header: []string{"strategy", "answers", "inferences", "facts", "iters", "max-arity"},
	}
	t.AddNote("Fig. 1 golden (magic program): %v", fig1OK)
	t.AddNote("Ex. 5.3 golden (final unary program): %v", finalOK)

	load := func() *engine.DB {
		db := engine.NewDB()
		workload.Chain(db, "e", 120)
		return db
	}
	strategies := pipeline.AllStrategies()
	results, skipped, err := pl.Compare(strategies, load, engine.Options{})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		t.AddRow(r.Strategy, len(r.Answers), r.Inferences, r.Facts, r.Iterations, r.MaxIDBArity)
	}
	for _, s := range strategies {
		if e, ok := skipped[s]; ok {
			t.AddNote("%s unavailable: %v", s, e)
		}
	}
	return t, nil
}

// runE1b sweeps n and reports the fact counts per strategy: semi-naive is
// quadratic in n, magic quadratic in the reachable suffix, factored linear.
func runE1b() (*Table, error) {
	t := &Table{
		ID:     "E1b",
		Title:  "chain(n), query t(n/3, Y): derived facts by strategy",
		Header: []string{"n", "semi-naive", "magic", "factored+opt", "magic/opt"},
	}
	for _, n := range []int{64, 128, 256, 512} {
		p := parser.MustParseProgram(tc3Src)
		query := parser.MustParseAtom(fmt.Sprintf("t(%d, Y)", n/3))
		pl := pipeline.New(p, query)
		load := func() *engine.DB {
			db := engine.NewDB()
			workload.Chain(db, "e", n)
			return db
		}
		semi, err := pl.Run(pipeline.SemiNaive, load(), engine.Options{})
		if err != nil {
			return nil, err
		}
		mag, err := pl.Run(pipeline.Magic, load(), engine.Options{})
		if err != nil {
			return nil, err
		}
		opt, err := pl.Run(pipeline.FactoredOptimized, load(), engine.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, semi.Facts, mag.Facts, opt.Facts,
			fmt.Sprintf("%.1fx", float64(mag.Facts)/float64(opt.Facts)))
	}
	t.AddNote("factored facts grow linearly; magic and semi-naive quadratically")
	return t, nil
}

// E1Pipeline builds the standard E1 pipeline; shared with the benchmarks.
func E1Pipeline(n int) (*pipeline.Pipeline, func() *engine.DB) {
	p := parser.MustParseProgram(tc3Src)
	query := parser.MustParseAtom(fmt.Sprintf("t(%d, Y)", n/3))
	pl := pipeline.New(p, query)
	return pl, func() *engine.DB {
		db := engine.NewDB()
		workload.Chain(db, "e", n)
		return db
	}
}

// E1Optimized returns the optimized unary program for the paper's query,
// for use by benchmarks that want the final program directly.
func E1Optimized() (*optimize.Result, error) {
	p := parser.MustParseProgram(tc3Src)
	pl := pipeline.New(p, parser.MustParseAtom("t(5, Y)"))
	return pl.OptimizedProgram()
}

func replaceConst(src, from, to string) string {
	// Replace the constant as a token: it appears as "(5)" or "(5," here.
	src = strings.ReplaceAll(src, "("+from+")", "("+to+")")
	src = strings.ReplaceAll(src, "("+from+",", "("+to+",")
	src = strings.ReplaceAll(src, ","+from+")", ","+to+")")
	return src
}
