package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"factorlog/internal/adorn"
	"factorlog/internal/ast"
	"factorlog/internal/core"
	"factorlog/internal/cost"
	"factorlog/internal/counting"
	"factorlog/internal/engine"
	"factorlog/internal/magic"
	"factorlog/internal/obsv"
	"factorlog/internal/optimize"
	"factorlog/internal/stream"
	"factorlog/internal/topdown"
	"factorlog/internal/trace"
)

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

var strategyNames = map[Strategy]string{
	Naive:              "naive",
	SemiNaive:          "semi-naive",
	Magic:              "magic",
	Factored:           "factored",
	FactoredOptimized:  "factored+opt",
	Counting:           "counting",
	TopDown:            "top-down",
	Tabled:             "tabled",
	SupplementaryMagic: "sup-magic",
	Auto:               "auto",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// AllStrategies lists every fixed strategy in presentation order. Auto is
// deliberately absent: it resolves to one of these per run, so sweeping it
// alongside them (Compare, the E1 table) would double-count its winner.
func AllStrategies() []Strategy {
	return []Strategy{Naive, SemiNaive, TopDown, Tabled, Magic, SupplementaryMagic,
		Factored, FactoredOptimized, Counting}
}

// Pipeline prepares and caches the transformations of one (program, query)
// pair.
type Pipeline struct {
	Program *ast.Program
	Query   ast.Atom
	// Constraints are optional full TGDs the EDB satisfies; they widen the
	// factorable classes (see package cq).
	Constraints []ast.Rule

	// mu guards the memoized transformation results and the span log below,
	// making a Pipeline safe for concurrent Runs (the plan cache hands one
	// Pipeline to many server requests). Evaluation itself never holds mu —
	// only the compile-once bookkeeping does.
	mu sync.Mutex

	adorned  *adorn.Result
	magicRes *magic.Result
	factRes  *core.FactorResult
	optRes   *optimize.Result
	cntRes   *counting.Result
	supRes   *magic.Result

	adornErr, magicErr, factErr, optErr, cntErr, supErr       error
	adornDone, magicDone, factDone, optDone, cntDone, supDone bool

	// spans traces each transformation stage the first time it runs (the
	// results above are cached, so each stage appears at most once).
	spans []obsv.Span
}

// New constructs a pipeline.
func New(p *ast.Program, query ast.Atom) *Pipeline {
	return &Pipeline{Program: p, Query: query}
}

// WithConstraints attaches EDB constraints used by the factorability tests.
func (pl *Pipeline) WithConstraints(tgds []ast.Rule) *Pipeline {
	pl.Constraints = tgds
	return pl
}

// stageStart marks the beginning of a stage: its wall clock and the
// process heap counters, so recordSpan can report the stage's allocation
// delta alongside its wall time.
type stageStart struct {
	t       time.Time
	mallocs uint64
	bytes   uint64
}

// startStage samples the wall clock and allocation counters. The counters
// are process-wide (runtime.MemStats), so the delta attributes concurrent
// allocations to the stage too; transformation stages run once under the
// pipeline lock, where the attribution is accurate in practice.
func startStage() stageStart {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return stageStart{t: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// recordSpan appends a stage span; in or out may be nil when the stage's
// input or output program is unavailable (a failed stage has no output).
func (pl *Pipeline) recordSpan(name string, start stageStart, in, out *ast.Program, err error) {
	sp := spanFrom(name, start, in, out, err)
	pl.spans = append(pl.spans, sp)
}

func spanFrom(name string, start stageStart, in, out *ast.Program, err error) obsv.Span {
	sp := obsv.Span{Name: name, Wall: time.Since(start.t)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sp.Allocs = ms.Mallocs - start.mallocs
	sp.AllocBytes = ms.TotalAlloc - start.bytes
	if in != nil {
		sp.RulesBefore, sp.ArityBefore = len(in.Rules), maxIDBArity(in)
	}
	if out != nil {
		sp.RulesAfter, sp.ArityAfter = len(out.Rules), maxIDBArity(out)
	}
	if err != nil {
		sp.Err = err.Error()
	}
	return sp
}

// Spans returns the stage spans recorded so far, in execution order.
func (pl *Pipeline) Spans() []obsv.Span {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]obsv.Span(nil), pl.spans...)
}

// Adorned returns the adorned program, computing it on first use.
func (pl *Pipeline) Adorned() (*adorn.Result, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.adornedLocked()
}

func (pl *Pipeline) adornedLocked() (*adorn.Result, error) {
	if !pl.adornDone {
		start := startStage()
		pl.adorned, pl.adornErr = adorn.Adorn(pl.Program, pl.Query)
		var out *ast.Program
		if pl.adornErr == nil {
			out = pl.adorned.Program
		}
		pl.recordSpan("adorn", start, pl.Program, out, pl.adornErr)
		pl.adornDone = true
	}
	return pl.adorned, pl.adornErr
}

// MagicProgram returns the Magic Sets result.
func (pl *Pipeline) MagicProgram() (*magic.Result, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.magicLocked()
}

func (pl *Pipeline) magicLocked() (*magic.Result, error) {
	if !pl.magicDone {
		ad, err := pl.adornedLocked()
		if err != nil {
			pl.magicErr = err
		} else {
			start := startStage()
			pl.magicRes, pl.magicErr = magic.Transform(ad)
			var out *ast.Program
			if pl.magicErr == nil {
				out = pl.magicRes.Program
			}
			pl.recordSpan("magic", start, ad.Program, out, pl.magicErr)
		}
		pl.magicDone = true
	}
	return pl.magicRes, pl.magicErr
}

// FactoredProgram returns the factored Magic program (Theorems 4.1-4.3).
func (pl *Pipeline) FactoredProgram() (*core.FactorResult, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.factoredLocked()
}

func (pl *Pipeline) factoredLocked() (*core.FactorResult, error) {
	if !pl.factDone {
		m, err := pl.magicLocked()
		if err != nil {
			pl.factErr = err
		} else {
			start := startStage()
			pl.factRes, pl.factErr = core.FactorMagic(m, pl.Constraints)
			var out *ast.Program
			if pl.factErr == nil {
				out = pl.factRes.Program
			}
			pl.recordSpan("factor", start, m.Program, out, pl.factErr)
		}
		pl.factDone = true
	}
	return pl.factRes, pl.factErr
}

// OptimizedProgram returns the factored program after Section 5 clean-up.
func (pl *Pipeline) OptimizedProgram() (*optimize.Result, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.optimizedLocked()
}

func (pl *Pipeline) optimizedLocked() (*optimize.Result, error) {
	if !pl.optDone {
		fr, err := pl.factoredLocked()
		if err != nil {
			pl.optErr = err
		} else {
			m, _ := pl.magicLocked()
			start := startStage()
			pl.optRes, pl.optErr = optimize.Optimize(fr.Program,
				optimize.ForFactored(fr, magic.QueryPred, m.Seed.Head.Args))
			var out *ast.Program
			if pl.optErr == nil {
				out = pl.optRes.Program
			}
			pl.recordSpan("optimize", start, fr.Program, out, pl.optErr)
		}
		pl.optDone = true
	}
	return pl.optRes, pl.optErr
}

// SupplementaryMagicProgram returns the supplementary-magic result.
func (pl *Pipeline) SupplementaryMagicProgram() (*magic.Result, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.supLocked()
}

func (pl *Pipeline) supLocked() (*magic.Result, error) {
	if !pl.supDone {
		ad, err := pl.adornedLocked()
		if err != nil {
			pl.supErr = err
		} else {
			start := startStage()
			pl.supRes, pl.supErr = magic.TransformSupplementary(ad)
			var out *ast.Program
			if pl.supErr == nil {
				out = pl.supRes.Program
			}
			pl.recordSpan("sup-magic", start, ad.Program, out, pl.supErr)
		}
		pl.supDone = true
	}
	return pl.supRes, pl.supErr
}

// CountingProgram returns the Counting transformation result.
func (pl *Pipeline) CountingProgram() (*counting.Result, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.countingLocked()
}

func (pl *Pipeline) countingLocked() (*counting.Result, error) {
	if !pl.cntDone {
		ad, err := pl.adornedLocked()
		if err != nil {
			pl.cntErr = err
		} else {
			start := startStage()
			pl.cntRes, pl.cntErr = counting.Transform(ad)
			var out *ast.Program
			if pl.cntErr == nil {
				out = pl.cntRes.Program
			}
			pl.recordSpan("counting", start, ad.Program, out, pl.cntErr)
		}
		pl.cntDone = true
	}
	return pl.cntRes, pl.cntErr
}

// RunResult reports one strategy's outcome over one EDB.
type RunResult struct {
	Strategy Strategy
	// Answers are the query answers projected to the query's free
	// (non-ground) argument positions, rendered "(v1,..,vk)".
	Answers map[string]bool
	// Facts counts facts derived during evaluation (IDB facts; for
	// TopDown, successful proofs of IDB subgoals).
	Facts int
	// Inferences counts rule firings (resolution steps for TopDown).
	Inferences int
	// Iterations counts fixpoint rounds (max proof depth for TopDown).
	Iterations int
	// MaxIDBArity is the widest IDB predicate of the evaluated program,
	// counting index fields for Counting — the paper's arity-reduction
	// metric.
	MaxIDBArity int
	// Program is the program that was evaluated.
	Program *ast.Program
	// Spans traces the transformation stages that produced Program, ending
	// with an "eval" span for the evaluation itself.
	Spans []obsv.Span
	// Rules and Rounds carry the engine's per-rule and per-round records
	// when engine.Options.Trace is set (bottom-up strategies only; nil
	// otherwise).
	Rules  []obsv.RuleStats
	Rounds []obsv.RoundStats
	// Strata and Workers carry the parallel evaluator's per-stratum and
	// per-worker records when tracing a run with engine.Options.Workers > 1.
	Strata  []obsv.StratumStats
	Workers []obsv.WorkerStats
	// EvalWall is the evaluation's wall-clock time.
	EvalWall time.Duration
	// Storage is the database's storage shape after evaluation: arena and
	// index bytes, table counts, and hash-table load factors.
	Storage obsv.StorageStats
	// Degraded reports that a parallel evaluation lost a worker to a panic
	// and the answers come from the sequential retry (engine.Stats.Degraded).
	Degraded bool
	// Executor names the bottom-up evaluator that ran: "stream" when the
	// streaming relational-algebra executor handled the run (non-recursive
	// strata as iterator pipelines, recursive ones delegated to the
	// fixpoint), "materialize" for the classic fixpoint evaluators. Empty
	// for top-down strategies.
	Executor string
	// Stream carries the streaming executor's counters (rows, probes,
	// pushdowns, per-operator flow under Trace); nil unless Executor is
	// "stream".
	Stream *obsv.StreamStats
	// AutoPicked reports that the run was requested under the Auto strategy
	// and Strategy is the concrete winner the planner resolved it to.
	AutoPicked bool
	// Candidates is the planner's candidate table (estimated costs, chosen
	// and rejection reasons) when AutoPicked is set; nil otherwise.
	Candidates []CandidateInfo
}

// streamEligible reports whether opts route a bottom-up evaluation to the
// streaming executor: opt-in via Options.Streaming, semi-naive strategy
// (the streaming plan's recursive fallback is semi-naive, so naive-mode
// cost measures would be wrong), and no provenance recording (only the
// fixpoint evaluator builds derivation trees).
func streamEligible(opts engine.Options) bool {
	return opts.Streaming == engine.StreamAuto &&
		opts.Strategy == engine.SemiNaive &&
		!opts.Provenance
}

// evalProgram runs one bottom-up evaluation, routing to the streaming
// executor when eligible. It returns the engine stats, the stream stats
// (nil for materializing runs), and the executor name.
func evalProgram(prog *ast.Program, db *engine.DB, opts engine.Options) (engine.Stats, *obsv.StreamStats, string, error) {
	if streamEligible(opts) {
		res, err := stream.Eval(prog, db, opts)
		if err != nil {
			return engine.Stats{}, nil, "", err
		}
		st := res.Stream
		return res.Stats, &st, "stream", nil
	}
	res, err := engine.Eval(prog, db, opts)
	if err != nil {
		return engine.Stats{}, nil, "", err
	}
	return res.Stats, nil, "materialize", nil
}

// stageNames lists, per strategy, the transformation stages that produce
// the program it evaluates; strategies not listed evaluate the source
// program directly.
var stageNames = map[Strategy][]string{
	Magic:              {"adorn", "magic"},
	SupplementaryMagic: {"adorn", "sup-magic"},
	Factored:           {"adorn", "magic", "factor"},
	FactoredOptimized:  {"adorn", "magic", "factor", "optimize"},
	Counting:           {"adorn", "counting"},
}

// Compile forces the transformation chain a strategy evaluates, so later
// Runs pay only evaluation cost. It is a no-op for the strategies that
// evaluate the source program directly (Naive, SemiNaive, TopDown, Tabled)
// and memoized for the rest: the first call does the work, every later
// call (from any goroutine) returns the cached outcome.
func (pl *Pipeline) Compile(s Strategy) error {
	switch s {
	case TopDown, Tabled:
		return nil
	case Auto:
		return fmt.Errorf("auto strategy resolves at run time; compile the picked strategy")
	}
	_, _, _, err := pl.MaterializedProgram(s)
	return err
}

// spansFor selects the recorded spans belonging to one strategy's stage
// chain (the pipeline accumulates spans across strategies as its caches
// fill).
func (pl *Pipeline) spansFor(s Strategy) []obsv.Span {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var out []obsv.Span
	for _, name := range stageNames[s] {
		for _, sp := range pl.spans {
			if sp.Name == name {
				out = append(out, sp)
				break
			}
		}
	}
	return out
}

// evalStart marks the start of an evaluation. Allocation counters are
// sampled only for traced runs: ReadMemStats briefly stops the world, and
// untraced server queries should not pay that per request.
func evalStart(traced bool) stageStart {
	if traced {
		return startStage()
	}
	return stageStart{t: time.Now()}
}

// evalSpan summarizes an evaluation as a span over the evaluated program,
// including the allocation delta when start sampled the heap counters.
func evalSpan(p *ast.Program, start stageStart, wall time.Duration, traced bool) obsv.Span {
	n, a := len(p.Rules), maxIDBArity(p)
	sp := obsv.Span{Name: "eval", Wall: wall,
		RulesBefore: n, RulesAfter: n, ArityBefore: a, ArityAfter: a}
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sp.Allocs = ms.Mallocs - start.mallocs
		sp.AllocBytes = ms.TotalAlloc - start.bytes
	}
	return sp
}

// attachStageSpans replays the memoized transformation stages of s under
// parent as pre-measured (Cached) spans — their wall time was paid when the
// pipeline compiled, possibly by an earlier query — and returns the "eval"
// child span the evaluation should run under. A nil parent is a no-op
// returning nil.
func (pl *Pipeline) attachStageSpans(s Strategy, parent *trace.Span) *trace.Span {
	if parent == nil {
		return nil
	}
	for _, sp := range pl.spansFor(s) {
		parent.AddFinished(sp.Name, sp.Wall).
			SetAllocs(sp.Allocs, sp.AllocBytes).
			SetCached(true).
			SetNote(fmt.Sprintf("rules %d→%d, arity %d→%d",
				sp.RulesBefore, sp.RulesAfter, sp.ArityBefore, sp.ArityAfter))
	}
	return parent.Child("eval")
}

// Run evaluates one strategy over db. The db is mutated (derived relations
// are added); pass a fresh db per run.
//
// When evalOpts.Span is set, Run attaches the strategy's compile-stage
// spans under it and hands the engine an "eval" child span, so a query's
// trace shows adorn → magic → factor → … → eval with the engine's stratum,
// round, and rule spans below eval.
func (pl *Pipeline) Run(s Strategy, db *engine.DB, evalOpts engine.Options) (*RunResult, error) {
	if s == Auto {
		// Resolve the adaptive strategy against the EDB currently loaded in
		// db (statistics must be taken before evaluation mutates it), then
		// run the winner. Provenance recording needs a caller-fixed program,
		// so Auto refuses it with a typed error (surfaces answer 400).
		if evalOpts.Provenance {
			return nil, fmt.Errorf("%w: provenance evaluation needs a fixed strategy", ErrAutoUnsupported)
		}
		dec, err := pl.AutoPick(cost.SnapshotFromDB(db, 0))
		if err != nil {
			return nil, err
		}
		if dec.Reorder {
			evalOpts.ReorderJoins = true
		}
		r, err := pl.Run(dec.Strategy, db, evalOpts)
		if err != nil {
			return nil, err
		}
		r.AutoPicked = true
		r.Candidates = dec.Candidates
		return r, nil
	}
	if evalOpts.Span != nil {
		// Force the compile first (memoized) so the stage spans exist to
		// replay; a compile failure surfaces here exactly as it would below.
		if err := pl.Compile(s); err != nil {
			return nil, err
		}
		evalSp := pl.attachStageSpans(s, evalOpts.Span)
		evalOpts.Span = evalSp
		defer evalSp.End()
	}
	switch s {
	case Naive, SemiNaive:
		evalOpts.Strategy = engine.SemiNaive
		if s == Naive {
			evalOpts.Strategy = engine.Naive
		}
		start := evalStart(evalOpts.Trace)
		stats, streamStats, executor, err := evalProgram(pl.Program, db, evalOpts)
		wall := time.Since(start.t)
		if err != nil {
			return nil, err
		}
		evalOpts.Span.AddTuplesOut(int64(stats.Derived))
		answers, err := pl.projectedAnswers(db)
		if err != nil {
			return nil, err
		}
		return &RunResult{
			Strategy:    s,
			Answers:     answers,
			Facts:       stats.Derived,
			Inferences:  stats.Inferences,
			Iterations:  stats.Iterations,
			MaxIDBArity: maxIDBArity(pl.Program),
			Program:     pl.Program,
			Spans:       []obsv.Span{evalSpan(pl.Program, start, wall, evalOpts.Trace)},
			Rules:       stats.Rules,
			Rounds:      stats.Rounds,
			Strata:      stats.Strata,
			Workers:     stats.Workers,
			EvalWall:    wall,
			Storage:     db.StorageStats(),
			Degraded:    stats.Degraded,
			Executor:    executor,
			Stream:      streamStats,
		}, nil

	case Tabled:
		start := evalStart(false)
		res, err := topdown.SolveTabled(pl.Program, db, pl.Query, topdown.Options{})
		wall := time.Since(start.t)
		if err != nil {
			return nil, err
		}
		answers := map[string]bool{}
		free := pl.freePositions()
		for _, a := range res.Answers {
			answers[renderProjection(a.Args, free, func(t ast.Term) string { return t.String() })] = true
		}
		return &RunResult{
			Strategy:    Tabled,
			Answers:     answers,
			Facts:       res.Stats.Answers,
			Inferences:  res.Stats.Steps,
			Iterations:  res.Stats.Rounds,
			MaxIDBArity: maxIDBArity(pl.Program),
			Program:     pl.Program,
			Spans:       []obsv.Span{evalSpan(pl.Program, start, wall, false)},
			EvalWall:    wall,
			Storage:     db.StorageStats(),
		}, nil

	case TopDown:
		// Budget tightly: like Prolog, SLD diverges on left recursion (the
		// first dive of the non-linear transitive closure rule) and on
		// cyclic data. Substitutions grow with depth, so a deep dive costs
		// O(depth^2) live map entries — keep the cap moderate. A budget
		// error makes Compare report the strategy as unavailable.
		start := evalStart(false)
		res, err := topdown.Solve(pl.Program, db, pl.Query, topdown.Options{
			MaxDepth: 1000,
			MaxSteps: 5_000_000,
		})
		wall := time.Since(start.t)
		if err != nil {
			return nil, err
		}
		answers := map[string]bool{}
		free := pl.freePositions()
		for _, a := range res.Answers {
			answers[renderProjection(a.Args, free, func(t ast.Term) string { return t.String() })] = true
		}
		return &RunResult{
			Strategy:    TopDown,
			Answers:     answers,
			Facts:       res.Stats.IDBSuccesses,
			Inferences:  res.Stats.Steps,
			Iterations:  res.Stats.MaxDepthSeen,
			MaxIDBArity: maxIDBArity(pl.Program),
			Program:     pl.Program,
			Spans:       []obsv.Span{evalSpan(pl.Program, start, wall, false)},
			EvalWall:    wall,
			Storage:     db.StorageStats(),
		}, nil

	default:
		// Every other strategy evaluates a rewritten program and reads its
		// answers off the rewritten query predicate.
		prog, query, _, err := pl.MaterializedProgram(s)
		if err != nil {
			return nil, err
		}
		return pl.runTransformed(s, prog, query, db, evalOpts)
	}
}

func (pl *Pipeline) runTransformed(s Strategy, prog *ast.Program, query ast.Atom,
	db *engine.DB, evalOpts engine.Options) (*RunResult, error) {
	start := evalStart(evalOpts.Trace)
	stats, streamStats, executor, err := evalProgram(prog, db, evalOpts)
	wall := time.Since(start.t)
	if err != nil {
		return nil, err
	}
	evalOpts.Span.AddTuplesOut(int64(stats.Derived))
	set, err := engine.AnswerSet(db, query)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Strategy:    s,
		Answers:     set,
		Facts:       stats.Derived,
		Inferences:  stats.Inferences,
		Iterations:  stats.Iterations,
		MaxIDBArity: maxIDBArity(prog),
		Program:     prog,
		Spans:       append(pl.spansFor(s), evalSpan(prog, start, wall, evalOpts.Trace)),
		Rules:       stats.Rules,
		Rounds:      stats.Rounds,
		Strata:      stats.Strata,
		Workers:     stats.Workers,
		EvalWall:    wall,
		Storage:     db.StorageStats(),
		Degraded:    stats.Degraded,
		Executor:    executor,
		Stream:      streamStats,
	}, nil
}

// MaterializableStrategy reports whether s can serve from a materialized
// database. Every bottom-up strategy qualifies — each evaluates a fixed
// program whose fixpoint the materializer maintains across mutations. The
// top-down strategies (TopDown, Tabled) prove goals on demand and have no
// materialized view to maintain.
func MaterializableStrategy(s Strategy) bool {
	switch s {
	case Naive, SemiNaive, Magic, SupplementaryMagic, Factored, FactoredOptimized, Counting:
		return true
	}
	return false
}

// MaterializedProgram returns the program strategy s evaluates bottom-up
// and the atom whose tuples are its answers. transformed reports whether
// that atom is a rewritten query predicate — read with engine.AnswerSet —
// or the original query, whose matching tuples must be projected onto the
// free positions (ProjectAnswers). Top-down strategies return an error;
// gate with MaterializableStrategy.
func (pl *Pipeline) MaterializedProgram(s Strategy) (prog *ast.Program, query ast.Atom, transformed bool, err error) {
	switch s {
	case Naive, SemiNaive:
		return pl.Program, pl.Query, false, nil
	case Magic:
		m, err := pl.MagicProgram()
		if err != nil {
			return nil, ast.Atom{}, false, err
		}
		return m.Program, m.Query, true, nil
	case SupplementaryMagic:
		sm, err := pl.SupplementaryMagicProgram()
		if err != nil {
			return nil, ast.Atom{}, false, err
		}
		return sm.Program, sm.Query, true, nil
	case Factored:
		fr, err := pl.FactoredProgram()
		if err != nil {
			return nil, ast.Atom{}, false, err
		}
		return fr.Program, fr.Query, true, nil
	case FactoredOptimized:
		opt, err := pl.OptimizedProgram()
		if err != nil {
			return nil, ast.Atom{}, false, err
		}
		fr, _ := pl.FactoredProgram()
		return opt.Program, fr.Query, true, nil
	case Counting:
		c, err := pl.CountingProgram()
		if err != nil {
			return nil, ast.Atom{}, false, err
		}
		return c.Program, c.Query, true, nil
	default:
		return nil, ast.Atom{}, false, fmt.Errorf("strategy %v has no materialized program", s)
	}
}

// ProjectAnswers projects db's tuples matching the original query onto its
// free positions — the answer shape every strategy shares.
func (pl *Pipeline) ProjectAnswers(db *engine.DB) (map[string]bool, error) {
	return pl.projectedAnswers(db)
}

// projectedAnswers projects the original query's matching tuples onto the
// free positions, matching the transformed strategies' answer shape.
func (pl *Pipeline) projectedAnswers(db *engine.DB) (map[string]bool, error) {
	tuples, err := engine.Answers(db, pl.Query)
	if err != nil {
		return nil, err
	}
	free := pl.freePositions()
	out := make(map[string]bool, len(tuples))
	for _, tup := range tuples {
		out[renderProjection(tup, free, func(v engine.Val) string { return db.Store.String(v) })] = true
	}
	return out, nil
}

func (pl *Pipeline) freePositions() []int {
	var out []int
	for i, t := range pl.Query.Args {
		if !t.Ground() {
			out = append(out, i)
		}
	}
	return out
}

func renderProjection[T any](args []T, pos []int, show func(T) string) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, p := range pos {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(show(args[p]))
	}
	b.WriteByte(')')
	return b.String()
}

func maxIDBArity(p *ast.Program) int {
	arities, err := p.PredArities()
	if err != nil {
		return 0
	}
	max := 0
	for pred := range p.IDBPreds() {
		if arities[pred] > max {
			max = arities[pred]
		}
	}
	return max
}

// SameAnswers reports whether two runs agree, and a description of the
// first difference otherwise.
func SameAnswers(a, b *RunResult) (bool, string) {
	for k := range a.Answers {
		if !b.Answers[k] {
			return false, fmt.Sprintf("%s has %s, %s does not", a.Strategy, k, b.Strategy)
		}
	}
	for k := range b.Answers {
		if !a.Answers[k] {
			return false, fmt.Sprintf("%s has %s, %s does not", b.Strategy, k, a.Strategy)
		}
	}
	return true, ""
}

// Compare runs each strategy on a fresh EDB produced by load and checks
// that all runs agree on the answers. Strategies whose transformation is
// unavailable for this program (e.g. Factored on a non-factorable program,
// Counting on a left-linear one) are skipped and reported in skipped.
func (pl *Pipeline) Compare(strategies []Strategy, load func() *engine.DB,
	evalOpts engine.Options) (results []*RunResult, skipped map[Strategy]error, err error) {
	skipped = map[Strategy]error{}
	for _, s := range strategies {
		r, runErr := pl.Run(s, load(), evalOpts)
		if runErr != nil {
			skipped[s] = runErr
			continue
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if ok, diff := SameAnswers(results[0], results[i]); !ok {
			return results, skipped, fmt.Errorf("strategies disagree: %s", diff)
		}
	}
	return results, skipped, nil
}

// Table renders results as an aligned text table. Column widths adapt to
// the contents (long strategy names, large counts) via text/tabwriter.
func Table(results []*RunResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tanswers\tinferences\tfacts\titers\tarity")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Strategy, len(r.Answers), r.Inferences, r.Facts, r.Iterations, r.MaxIDBArity)
	}
	w.Flush()
	return b.String()
}

// ProfileTable renders one run's profile: its stage spans and, when the
// evaluation was traced (engine.Options.Trace), the per-rule and per-round
// tables.
func ProfileTable(r *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s (eval wall %s)\n",
		r.Strategy, obsv.FormatDuration(r.EvalWall))
	if r.Executor != "" {
		fmt.Fprintf(&b, "executor: %s\n", r.Executor)
	}
	if r.Stream != nil {
		b.WriteString(obsv.StreamLine(*r.Stream))
		b.WriteByte('\n')
	}
	if r.Storage.Relations > 0 {
		b.WriteString(obsv.StorageLine(r.Storage))
		b.WriteByte('\n')
	}
	b.WriteString(obsv.SpanTable(r.Spans))
	if len(r.Rules) > 0 {
		b.WriteByte('\n')
		b.WriteString(obsv.RuleTable(r.Rules))
	}
	if len(r.Strata) > 0 {
		b.WriteByte('\n')
		b.WriteString(obsv.StratumTable(r.Strata))
	}
	if len(r.Workers) > 0 {
		b.WriteByte('\n')
		b.WriteString(obsv.WorkerTable(r.Workers))
	}
	if len(r.Rounds) > 0 {
		b.WriteByte('\n')
		b.WriteString(obsv.RoundTable(r.Rounds))
	}
	if r.Stream != nil && len(r.Stream.Ops) > 0 {
		b.WriteByte('\n')
		b.WriteString(obsv.StreamOpTable(r.Stream.Ops))
	}
	return b.String()
}

// SortedAnswers renders a run's answers sorted, for display.
func SortedAnswers(r *RunResult) []string {
	out := make([]string, 0, len(r.Answers))
	for a := range r.Answers {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
