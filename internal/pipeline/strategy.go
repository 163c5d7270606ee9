package pipeline

import (
	"fmt"
	"sort"
	"strings"

	"factorlog/internal/adorn"
	"factorlog/internal/ast"
	"factorlog/internal/core"
	"factorlog/internal/counting"
	"factorlog/internal/engine"
	"factorlog/internal/magic"
	"factorlog/internal/optimize"
	"factorlog/internal/reduce"
)

// This file is the one place a strategy or a rewrite stage is declared. A
// strategy is a chain of compile-time rewrites plus an evaluator (the
// paper's adorn §4.1 → Magic Fig. 1 → factor Thms 4.1-4.3 → §5 clean-up,
// with Counting §6 and supplementary magic branching off the adorned
// program); everything else — names, parsing, listings, Compile, Run's
// dispatch, MaterializedProgram, EXPLAIN — reads the two tables below.
// Adding a strategy is one row in strategies; adding a rewrite is one row
// in stages plus a typed accessor if callers need its result.

// Strategy names an evaluation strategy over the original or a transformed
// program.
type Strategy int

const (
	// Naive: naive bottom-up fixpoint of the original program.
	Naive Strategy = iota
	// SemiNaive: semi-naive bottom-up fixpoint of the original program.
	SemiNaive
	// Magic: adorn + Magic Sets, then semi-naive.
	Magic
	// Factored: Magic followed by factoring (Theorems 4.1-4.3), then
	// semi-naive.
	Factored
	// FactoredOptimized: Factored followed by the Section 5 clean-up.
	FactoredOptimized
	// Counting: the Counting transformation, then semi-naive.
	Counting
	// TopDown: SLD resolution on the original program (the Prolog
	// baseline).
	TopDown
	// Tabled: QSQR-style memoizing top-down evaluation — the strategy
	// Magic Sets simulates bottom-up.
	Tabled
	// SupplementaryMagic: Magic Sets with supplementary predicates
	// (Beeri-Ramakrishnan, the paper's [3]), then semi-naive.
	SupplementaryMagic
	// Auto: adaptive strategy — the cost-based planner snapshots EDB
	// statistics, enumerates the eligible fixed strategies × body-literal
	// orderings, and runs the cheapest candidate (see internal/cost and
	// docs/PLANNER.md). Resolved per run; it is not itself compilable.
	Auto
)

// evaluator says how a strategy's program is run.
type evaluator int

const (
	// bottomUp: fixpoint of the chain's last program, or of the source
	// program when the chain is empty. These are the materializable
	// strategies.
	bottomUp evaluator = iota + 1
	// sld: memo-less SLD resolution of the query on the source program.
	sld
	// tabled: memoizing (QSQR) top-down evaluation on the source program.
	tabled
	// perRun: resolved to one of the other strategies per run; not
	// compilable.
	perRun
)

// strategyRow declares one strategy.
type strategyRow struct {
	name string
	// chain is the rewrite stages that produce the evaluated program, in
	// execution order; empty means the source program is evaluated as is.
	chain []stageID
	eval  evaluator
	// mode is the fixpoint mode forced on the source program (bottomUp with
	// an empty chain); a rewritten program keeps the caller's.
	mode engine.Strategy
	// rank is the presentation order: AllStrategies, Compare and the E1
	// rows, the names ParseStrategy's error lists.
	rank int
	// auto is the Auto planner's tie-break order among its candidates — the
	// arity-reducing rewrites first, so an exact cost tie resolves toward
	// the paper's transformations. 0 means not a candidate.
	auto int
}

var strategies = [...]strategyRow{
	Naive:              {name: "naive", eval: bottomUp, mode: engine.Naive, rank: 1},
	SemiNaive:          {name: "semi-naive", eval: bottomUp, mode: engine.SemiNaive, rank: 2, auto: 6},
	TopDown:            {name: "top-down", eval: sld, rank: 3},
	Tabled:             {name: "tabled", eval: tabled, rank: 4},
	Magic:              {name: "magic", chain: []stageID{adornStage, magicStage}, eval: bottomUp, rank: 5, auto: 3},
	SupplementaryMagic: {name: "sup-magic", chain: []stageID{adornStage, supMagicStage}, eval: bottomUp, rank: 6, auto: 4},
	Factored:           {name: "factored", chain: []stageID{adornStage, magicStage, factorStage}, eval: bottomUp, rank: 7, auto: 2},
	FactoredOptimized:  {name: "factored+opt", chain: []stageID{adornStage, magicStage, factorStage, optimizeStage}, eval: bottomUp, rank: 8, auto: 1},
	Counting:           {name: "counting", chain: []stageID{adornStage, countingStage}, eval: bottomUp, rank: 9, auto: 5},
	Auto:               {name: "auto", eval: perRun, rank: 10},
}

// row returns s's declaration; a value outside the table gets the zero row
// (no name, no chain, no evaluator).
func (s Strategy) row() *strategyRow {
	if s < 0 || int(s) >= len(strategies) {
		return &strategyRow{}
	}
	return &strategies[s]
}

func (s Strategy) String() string {
	if n := s.row().name; n != "" {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ranked lists the strategies whose rank(row) is positive, in increasing
// rank order.
func ranked(rank func(*strategyRow) int) []Strategy {
	var out []Strategy
	for i := range strategies {
		if rank(&strategies[i]) > 0 {
			out = append(out, Strategy(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return rank(out[i].row()) < rank(out[j].row()) })
	return out
}

// ParseStrategy resolves a strategy name as the CLI, the REPL and the
// server's strategy parameter spell it ("factored+opt", "auto", ...).
func ParseStrategy(name string) (Strategy, error) {
	for i := range strategies {
		if strategies[i].name == name {
			return Strategy(i), nil
		}
	}
	var names []string
	for _, s := range ranked(func(r *strategyRow) int { return r.rank }) {
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("unknown strategy %q (one of: %s)", name, strings.Join(names, ", "))
}

// AllStrategies lists every fixed strategy in presentation order. Auto is
// deliberately absent: it resolves to one of these per run, so sweeping it
// alongside them (Compare, the E1 table) would double-count its winner.
func AllStrategies() []Strategy {
	return ranked(func(r *strategyRow) int {
		if r.eval == perRun {
			return 0
		}
		return r.rank
	})
}

// AutoCandidateStrategies lists the strategies the Auto planner enumerates,
// in tie-break order.
func AutoCandidateStrategies() []Strategy {
	return ranked(func(r *strategyRow) int { return r.auto })
}

// MaterializableStrategy reports whether s can serve from a materialized
// database. Every bottom-up strategy qualifies — each evaluates a fixed
// program whose fixpoint the materializer maintains across mutations. The
// top-down strategies (TopDown, Tabled) prove goals on demand and have no
// materialized view to maintain.
func MaterializableStrategy(s Strategy) bool { return s.row().eval == bottomUp }

// stageID indexes the rewrite stages.
type stageID int

const (
	adornStage stageID = iota
	magicStage
	supMagicStage
	factorStage
	optimizeStage
	countingStage
	numStages

	// sourceProgram is the input of a stage that rewrites the program as
	// written rather than another stage's output.
	sourceProgram stageID = -1
)

// stageDef declares one rewrite stage.
type stageDef struct {
	// name labels the stage's record (EXPLAIN's stages, the trace's spans).
	name  string
	input stageID
	// rewrite runs under the pipeline lock once input — and so everything
	// upstream of it — has succeeded; upstream reads the earlier results.
	rewrite func(pl *Pipeline) (rewritten, error)
}

// rewritten is what a stage produces.
type rewritten struct {
	// res is the rewrite package's typed result, served by the accessors.
	res any
	// prog is the rewritten program, query the atom whose tuples answer the
	// query in it.
	prog  *ast.Program
	query ast.Atom
	// reductions are the lines the stage contributes to EXPLAIN's
	// "reductions applied".
	reductions []string
}

var stages = [numStages]stageDef{
	adornStage: {name: "adorn", input: sourceProgram, rewrite: func(pl *Pipeline) (rewritten, error) {
		ad, err := adorn.Adorn(pl.Program, pl.Query)
		if err != nil {
			return rewritten{}, err
		}
		return rewritten{ad, ad.Program, ad.Query, nil}, nil
	}},
	magicStage: {name: "magic", input: adornStage, rewrite: func(pl *Pipeline) (rewritten, error) {
		m, err := magic.Transform(upstream[*adorn.Result](pl, adornStage))
		if err != nil {
			return rewritten{}, err
		}
		return rewritten{m, m.Program, m.Query, []string{magicReduction(pl.Query)}}, nil
	}},
	supMagicStage: {name: "sup-magic", input: adornStage, rewrite: func(pl *Pipeline) (rewritten, error) {
		sm, err := magic.TransformSupplementary(upstream[*adorn.Result](pl, adornStage))
		if err != nil {
			return rewritten{}, err
		}
		return rewritten{sm, sm.Program, sm.Query,
			[]string{magicReduction(pl.Query) + " with supplementary predicates"}}, nil
	}},
	factorStage: {name: "factor", input: magicStage, rewrite: func(pl *Pipeline) (rewritten, error) {
		fr, err := core.FactorMagic(upstream[*magic.Result](pl, magicStage), pl.Constraints)
		if err != nil {
			return pl.factorReduced(err)
		}
		return rewritten{fr, fr.Program, fr.Query, []string{factorReduction(fr)}}, nil
	}},
	optimizeStage: {name: "optimize", input: factorStage, rewrite: func(pl *Pipeline) (rewritten, error) {
		fr := upstream[*core.FactorResult](pl, factorStage)
		var seed []ast.Term
		if fr.Magic != nil {
			seed = fr.Magic.Seed.Head.Args
		}
		opt, err := optimize.Optimize(fr.Program, optimize.ForFactored(fr, fr.Query.Pred, seed))
		if err != nil {
			return rewritten{}, err
		}
		return rewritten{opt, opt.Program, fr.Query, opt.Trace}, nil
	}},
	countingStage: {name: "counting", input: adornStage, rewrite: func(pl *Pipeline) (rewritten, error) {
		c, err := counting.Transform(upstream[*adorn.Result](pl, adornStage))
		if err != nil {
			return rewritten{}, err
		}
		return rewritten{c, c.Program, c.Query,
			[]string{"counting transformation (§6.4): distance indexes replace carried arguments"}}, nil
	}},
}

// factorReduced is the factor stage's answer to a refusal, the paper's §5
// route around the class tests: when the rules the query reaches define
// only its predicate and a bound position is static (Definition 5.1), the
// program reduced at every static position answers the query the same way
// (Lemma 5.1). If a bound position remains, the reduced program is adorned,
// rewritten by Magic Sets and factored; if none does, its predicate has lost
// every bound argument (bp would be nullary) and it is the factored program
// as it stands. Any other outcome keeps the refusal.
func (pl *Pipeline) factorReduced(refused error) (rewritten, error) {
	unit := unitRules(pl.Program, pl.Query.Pred)
	if unit == nil {
		return rewritten{}, refused
	}
	prog, query, steps, err := reduce.ReduceAll(unit, pl.Query)
	if err != nil || len(steps) == 0 {
		return rewritten{}, refused
	}
	taken, _ := pl.Program.PredArities()
	var lines []string
	for _, st := range steps {
		if _, clash := taken[st.Reduced]; clash {
			return rewritten{}, refused
		}
		lines = append(lines, st.String())
	}
	fr := &core.FactorResult{Program: prog, Query: query, Reduced: steps}
	if len(ast.AdornmentOf(query, nil).Bound()) == 0 {
		lines = append(lines, fmt.Sprintf("%s has no bound argument left: the reduced program replaces the magic program (Lemma 5.1)",
			ast.FmtPredArity(query.Pred, len(query.Args))))
		return rewritten{fr, fr.Program, fr.Query, lines}, nil
	}
	m, err := magic.FromQuery(prog, query)
	if err != nil {
		return rewritten{}, refused
	}
	if fr, err = core.FactorMagic(m, pl.Constraints); err != nil {
		return rewritten{}, refused
	}
	fr.Reduced = steps
	lines = append(lines, magicReduction(query), factorReduction(fr))
	return rewritten{fr, fr.Program, fr.Query, lines}, nil
}

// unitRules returns the rules defining pred when they are all the rules the
// query reaches — no body literal names another IDB predicate — and nil
// otherwise.
func unitRules(p *ast.Program, pred string) *ast.Program {
	unit := &ast.Program{Rules: p.RulesFor(pred)}
	for _, r := range unit.Rules {
		for _, b := range r.Body {
			if b.Pred != pred && p.IsIDB(b.Pred) {
				return nil
			}
		}
	}
	return unit
}

// stageMemo is one stage's memoized outcome on one Pipeline.
type stageMemo struct {
	rewritten
	done bool
	err  error
	// rec indexes the stage's entry in Pipeline.stageLog; -1 when the stage
	// never ran because something upstream of it failed.
	rec int
	// compiled is the engine's compile of prog, for the strategies whose
	// chain ends at this stage (see compiledProgram).
	compiled compiledMemo
}

// compiledMemo is the memoized engine compile of one materialized program.
type compiledMemo struct {
	done bool
	cp   *engine.CompiledProgram
	err  error
}

// upstream reads the typed result of a stage that is known to have
// succeeded; rewrite funcs call it, under the pipeline lock.
func upstream[T any](pl *Pipeline, id stageID) T { return pl.memo[id].res.(T) }

// stage returns stage id's outcome on this pipeline, running it — and
// whatever it consumes — on first use. It is the only place a rewrite runs:
// it owns the lock, the stage record, and the memoization rule.
func (pl *Pipeline) stage(id stageID) stageMemo {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return *pl.stageLocked(id)
}

func (pl *Pipeline) stageLocked(id stageID) *stageMemo {
	m := &pl.memo[id]
	if m.done {
		return m
	}
	if pl.tmpl != nil {
		*m = pl.bound.stage(pl.tmpl.stage(id))
		return m
	}
	def := &stages[id]
	in := pl.Program
	if def.input != sourceProgram {
		up := pl.stageLocked(def.input)
		if up.err != nil {
			*m = stageMemo{done: true, err: up.err, rec: -1}
			return m
		}
		in = up.prog
	}
	start := startStage(true)
	out, err := def.rewrite(pl)
	// Nothing is memoized before the rewrite has returned: a panic in it
	// unwinds through here (to buildPlan's recover barrier) and leaves the
	// stage to run again on the next call.
	*m = stageMemo{rewritten: out, done: true, err: err, rec: len(pl.stageLog)}
	pl.stageLog = append(pl.stageLog, stageFrom(def.name, start, in, out.prog, err))
	return m
}

// stageResult is the typed view the exported accessors share. A plan's
// bound pipeline has none: its typed results would carry the template's
// parameters, not the query's constants.
func stageResult[T any](pl *Pipeline, id stageID) (T, error) {
	if pl.tmpl != nil {
		var none T
		return none, fmt.Errorf("%s: typed stage results are the template's; compile %s with New", stages[id].name, pl.Query)
	}
	m := pl.stage(id)
	res, _ := m.res.(T)
	return res, m.err
}

// MagicProgram returns the Magic Sets result.
func (pl *Pipeline) MagicProgram() (*magic.Result, error) {
	return stageResult[*magic.Result](pl, magicStage)
}

// FactoredProgram returns the factored Magic program (Theorems 4.1-4.3).
func (pl *Pipeline) FactoredProgram() (*core.FactorResult, error) {
	return stageResult[*core.FactorResult](pl, factorStage)
}

// OptimizedProgram returns the factored program after Section 5 clean-up.
func (pl *Pipeline) OptimizedProgram() (*optimize.Result, error) {
	return stageResult[*optimize.Result](pl, optimizeStage)
}

// CountingProgram returns the Counting transformation result.
func (pl *Pipeline) CountingProgram() (*counting.Result, error) {
	return stageResult[*counting.Result](pl, countingStage)
}

// Compile forces the transformation chain a strategy evaluates, so later
// Runs pay only evaluation cost. It is a no-op for the strategies that
// evaluate the source program directly (Naive, SemiNaive, TopDown, Tabled)
// and memoized for the rest: the first call does the work, every later
// call (from any goroutine) returns the cached outcome.
func (pl *Pipeline) Compile(s Strategy) error {
	_, err := pl.compile(s)
	return err
}

// compile is Compile that also reports whether a rewrite stage ran in this
// call — on a bound pipeline, in its template — rather than being read
// from the memo.
func (pl *Pipeline) compile(s Strategy) (ran bool, err error) {
	row := s.row()
	if row.eval == perRun {
		return false, fmt.Errorf("auto strategy resolves at run time; compile the picked strategy")
	}
	if len(row.chain) == 0 {
		return false, nil
	}
	last := row.chain[len(row.chain)-1]
	if pl.tmpl != nil {
		if ran, err = pl.tmpl.compile(s); err != nil {
			err = boundErr{err: err, text: pl.bound.text}
		}
		return ran, err
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	before := len(pl.stageLog)
	err = pl.stageLocked(last).err
	return len(pl.stageLog) > before, err
}

// MaterializedProgram returns the program strategy s evaluates bottom-up
// and the atom whose tuples are its answers. transformed reports whether
// that atom is a rewritten query predicate or the original query, whose
// matching tuples must be projected onto the free positions; ProjectAnswers
// reads either. Top-down strategies return an error;
// gate with MaterializableStrategy.
func (pl *Pipeline) MaterializedProgram(s Strategy) (prog *ast.Program, query ast.Atom, transformed bool, err error) {
	row := s.row()
	if row.eval != bottomUp {
		return nil, ast.Atom{}, false, fmt.Errorf("strategy %v has no materialized program", s)
	}
	if len(row.chain) == 0 {
		return pl.Program, pl.Query, false, nil
	}
	m := pl.stage(row.chain[len(row.chain)-1])
	if m.err != nil {
		return nil, ast.Atom{}, false, m.err
	}
	return m.prog, m.query, true, nil
}

// matProgram is what a materialization of one strategy builds from.
type matProgram struct {
	// cp is the compiled program; on a bound pipeline, its template's,
	// shared by every constant of the shape.
	cp *engine.CompiledProgram
	// bind maps each template parameter to the query's constant; nil on a
	// pipeline that compiles its own query.
	bind map[string]string
	// query and transformed are MaterializedProgram's.
	query       ast.Atom
	transformed bool
}

// materializedProgram returns what a materialization of strategy s builds
// from: MaterializedProgram's program, compiled by the engine once per
// template and strategy, and the constants a build binds into it
// (engine.CompiledProgram.Materialize). A bound pipeline reads its
// template's compile and never binds the program itself. A compile failure
// is memoized like a stage failure: every constant of the shape gets the
// template's error, naming its own constants.
func (pl *Pipeline) materializedProgram(s Strategy) (matProgram, error) {
	if pl.tmpl == nil {
		return pl.compiledProgram(s)
	}
	mp, err := pl.tmpl.compiledProgram(s)
	if err != nil {
		return matProgram{}, boundErr{err: err, text: pl.bound.text}
	}
	mp.bind = pl.bound.params
	if mp.transformed {
		mp.query = pl.bound.atom(mp.query)
	} else {
		mp.query = pl.Query
	}
	return mp, nil
}

// compiledProgram is materializedProgram on a pipeline that compiles its
// own query: the engine compile runs on first use, under the pipeline lock,
// and is memoized beside the stage that produced the program (the source
// program's in Pipeline.source). A transient failure — a compiler panic —
// is not memoized.
func (pl *Pipeline) compiledProgram(s Strategy) (matProgram, error) {
	row := s.row()
	if row.eval != bottomUp {
		return matProgram{}, fmt.Errorf("strategy %v has no materialized program", s)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	memo, prog, mp := &pl.source, pl.Program, matProgram{query: pl.Query}
	if len(row.chain) > 0 {
		m := pl.stageLocked(row.chain[len(row.chain)-1])
		if m.err != nil {
			return matProgram{}, m.err
		}
		memo, prog, mp = &m.compiled, m.prog, matProgram{query: m.query, transformed: true}
	}
	if !memo.done {
		cp, err := engine.Compile(prog)
		if err != nil && transientCompileErr(err) {
			return matProgram{}, err
		}
		*memo = compiledMemo{done: true, cp: cp, err: err}
	}
	mp.cp = memo.cp
	return mp, memo.err
}

// stagesFor returns the stage records of one strategy's chain, in chain
// order (the pipeline's log accumulates stages across strategies as its
// memo fills).
func (pl *Pipeline) stagesFor(s Strategy) []stageRecord {
	if pl.tmpl != nil {
		return pl.tmpl.stagesFor(s)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var out []stageRecord
	for _, id := range s.row().chain {
		if m := pl.memo[id]; m.done && m.rec >= 0 {
			out = append(out, pl.stageLog[m.rec])
		}
	}
	return out
}
