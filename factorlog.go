// Package factorlog is a deductive-database engine and optimizer that
// reproduces "Argument Reduction by Factoring" (Naughton, Ramakrishnan,
// Sagiv, Ullman; VLDB 1989 / TCS 146, 1995).
//
// The package exposes a small facade over the internal machinery:
//
//	sys, err := factorlog.Load(`
//	    t(X, Y) :- t(X, W), t(W, Y).
//	    t(X, Y) :- e(X, W), t(W, Y).
//	    t(X, Y) :- t(X, W), e(W, Y).
//	    t(X, Y) :- e(X, Y).
//	    ?- t(5, Y).
//	`)
//	db := sys.NewDB()
//	db.Fact("e", "5", "6")
//	db.Fact("e", "6", "7")
//	res, err := sys.Run(factorlog.FactoredOptimized, db)
//	// res.Answers == {"(6)", "(7)"}
//
// Strategies range from naive bottom-up evaluation through Magic Sets
// (plain and supplementary) to the paper's factored and Section-5-optimized
// programs, plus the Counting transformation, a memo-less Prolog-style
// top-down baseline, and a tabled (QSQR) top-down evaluator. Transformed
// programs can be inspected via Explain, factorability certificates via
// Classify.
package factorlog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/core"
	"factorlog/internal/cost"
	"factorlog/internal/cq"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/serve"
	"factorlog/internal/trace"
)

// Strategy selects how a query is evaluated. See package pipeline for the
// exact composition of each.
type Strategy = pipeline.Strategy

// The available strategies.
const (
	Naive              = pipeline.Naive
	SemiNaive          = pipeline.SemiNaive
	Magic              = pipeline.Magic
	SupplementaryMagic = pipeline.SupplementaryMagic
	Factored           = pipeline.Factored
	FactoredOptimized  = pipeline.FactoredOptimized
	Counting           = pipeline.Counting
	TopDown            = pipeline.TopDown
	Tabled             = pipeline.Tabled
	// Auto defers the choice to the adaptive optimizer: Run snapshots the
	// EDB's statistics, prices the eligible fixed strategies with the cost
	// model, and evaluates the winner (Result.Strategy reports which;
	// Result.Candidates the full table). See docs/PLANNER.md.
	Auto = pipeline.Auto
)

// AllStrategies lists every fixed strategy in presentation order. Auto is
// deliberately absent: it resolves to one of these, so sweeping it alongside
// them would double-count its winner.
func AllStrategies() []Strategy { return pipeline.AllStrategies() }

// ParseStrategy resolves a strategy by the name its String method prints
// ("factored+opt", "auto", ...); the error of an unknown name lists them all.
func ParseStrategy(name string) (Strategy, error) { return pipeline.ParseStrategy(name) }

// ErrNoQuery is returned by Load when the source contains no ?- query.
var ErrNoQuery = errors.New("factorlog: source contains no query (?- ...)")

// ErrNotFactorable is returned by Run/Explain for the factored strategies
// when no theorem of the paper certifies the factoring.
var ErrNotFactorable = core.ErrNotFactorable

// ErrAutoUnsupported is returned by Run(Auto, ...) on surfaces that need a
// caller-fixed strategy (e.g. provenance evaluation); test with errors.Is.
var ErrAutoUnsupported = pipeline.ErrAutoUnsupported

// CandidateInfo re-exports one row of the Auto planner's candidate table;
// see pipeline.CandidateInfo for field documentation.
type CandidateInfo = pipeline.CandidateInfo

// ErrBudgetExceeded is returned (wrapped) by Run when an evaluation exceeds
// the WithBudget limits; test with errors.Is to distinguish budget stops
// from real failures.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// ErrCanceled is returned (wrapped) by Run when the context installed with
// WithContext (or passed to Prepared.Run) is canceled before evaluation
// completes; test with errors.Is.
var ErrCanceled = engine.ErrCanceled

// ErrDeadlineExceeded is returned (wrapped) by Run when that context's
// deadline passes before evaluation completes; test with errors.Is.
var ErrDeadlineExceeded = engine.ErrDeadlineExceeded

// ErrBadOptions is returned (wrapped) by Run when the evaluation options
// are invalid (e.g. a negative WithWorkers count); test with errors.Is.
var ErrBadOptions = engine.ErrBadOptions

// ErrMemoryBudget is returned (wrapped) by Run when an evaluation's storage
// footprint (tuple arenas + hash indexes) exceeds the WithMemoryBudget
// bound; test with errors.Is. It is distinct from ErrBudgetExceeded, which
// governs derivation counts, not bytes.
var ErrMemoryBudget = engine.ErrMemoryBudget

// ErrInternal is returned (wrapped) by Run when evaluation or plan
// compilation panicked and the engine's recovery barrier converted the
// panic to an error; the process survives, the run's DB should be
// discarded. Test with errors.Is; the stack is reachable via
// errors.As(*engine.PanicError).
var ErrInternal = engine.ErrInternal

// RuleStats, StorageStats and StreamStats re-export the observability
// record types; see package obsv for field documentation.
type (
	RuleStats    = obsv.RuleStats
	StorageStats = obsv.StorageStats
	StreamStats  = obsv.StreamStats
)

// Trace re-exports the query-scoped span tree (package trace) a traced Run
// records into Result.Trace: the compile stages, then eval with its strata,
// rounds, rules and workers. Render it with Profile or JSON-marshal it.
type Trace = trace.Context

// System is a compiled (program, query) pair with cached transformations.
type System struct {
	pl *pipeline.Pipeline
	// base is the Load source's facts as one interned image: every NewDB
	// aliases it, Materialize slices it, and Auto takes its statistics.
	base     *engine.Base
	evalOpts engine.Options
}

// Load parses a source text containing IDB rules, exactly one ?- query,
// and optionally ground EDB facts (which seed every DB created by NewDB).
func Load(src string) (*System, error) {
	u, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(u.Queries) == 0 {
		return nil, ErrNoQuery
	}
	if len(u.Queries) > 1 {
		return nil, fmt.Errorf("factorlog: %d queries in source, want exactly 1", len(u.Queries))
	}
	base, err := engine.NewBase(u.Facts, 0)
	if err != nil {
		return nil, err
	}
	return &System{pl: pipeline.New(u.Program(), u.Queries[0]), base: base}, nil
}

// LoadProgram builds a System from an already-parsed program and query.
func LoadProgram(p *ast.Program, query ast.Atom) *System {
	base, _ := engine.NewBase(nil, 0) // no facts, nothing to reject
	return &System{pl: pipeline.New(p, query), base: base}
}

// WithConstraints declares full-TGD constraints the EDB is known to
// satisfy, widening the factorable classes (e.g. the EDB regularities the
// paper's Examples 4.3-4.5 presume). The source is parsed as rules.
func (s *System) WithConstraints(src string) (*System, error) {
	p, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	for _, r := range p.Rules {
		if err := cq.ValidateTGD(r); err != nil {
			return nil, err
		}
	}
	s.pl.WithConstraints(p.Rules)
	return s, nil
}

// WithBudget bounds evaluations (0 means unlimited); useful for strategies
// that can diverge (Counting on cyclic data). Overruns surface as
// ErrBudgetExceeded.
func (s *System) WithBudget(maxIterations, maxFacts int) *System {
	s.evalOpts.MaxIterations = maxIterations
	s.evalOpts.MaxFacts = maxFacts
	return s
}

// WithMemoryBudget bounds each evaluation's storage footprint — tuple
// arenas plus hash indexes, in bytes — checked at round boundaries
// (0 means unlimited). Overruns surface as ErrMemoryBudget.
func (s *System) WithMemoryBudget(maxBytes int64) *System {
	s.evalOpts.MaxBytes = maxBytes
	return s
}

// WithTrace enables (or disables) evaluation tracing: each subsequent Run
// records its own span tree into Result.Trace and fills Result.Rules with
// the exact per-rule counters, at a small evaluation-time cost.
func (s *System) WithTrace(on bool) *System {
	s.evalOpts.Trace = on
	return s
}

// WithWorkers sets the evaluation worker count for the bottom-up semi-naive
// strategies: 0 or 1 keeps the sequential evaluator, n > 1 evaluates with
// parallel stratified fixpoints over n workers. Answer sets and derived-fact
// counts are identical across worker counts.
func (s *System) WithWorkers(n int) *System {
	s.evalOpts.Workers = n
	return s
}

// WithStreaming opts subsequent Runs into the stratified schedule
// (engine.StreamAuto): the bottom-up semi-naive strategies evaluate the
// program stratum by stratum, each non-recursive stratum (magic seeds,
// factoring cleanup products, ...) in one pass and each recursive one as
// its own semi-naive fixpoint. Answers are identical either way;
// Result.Executor and Result.Stream report what ran. Off by default so the
// paper's cost measures keep the global loop's semantics.
func (s *System) WithStreaming(on bool) *System {
	if on {
		s.evalOpts.Streaming = engine.StreamAuto
	} else {
		s.evalOpts.Streaming = engine.StreamOff
	}
	return s
}

// WithContext bounds subsequent Runs by ctx: cancellation or a deadline
// terminates evaluation with ErrCanceled or ErrDeadlineExceeded. A nil ctx
// removes the bound. Per-run contexts are usually clearer via Prepared.Run.
func (s *System) WithContext(ctx context.Context) *System {
	s.evalOpts.Context = ctx
	return s
}

// Query returns the query atom.
func (s *System) Query() ast.Atom { return s.pl.Query }

// Program returns the IDB program.
func (s *System) Program() *ast.Program { return s.pl.Program }

// DB is an extensional database bound to a System.
type DB struct {
	inner *engine.DB
}

// NewDB returns a database holding the facts from the Load source. The
// facts are shared, not copied: a relation is cloned only when Fact or an
// evaluation first writes to it.
func (s *System) NewDB() *DB {
	return &DB{inner: s.base.Current().EvalDB()}
}

// Fact inserts a fact with constant arguments. Arguments are constant
// symbols; use FactTerms for structured (list) arguments.
func (db *DB) Fact(pred string, args ...string) {
	tuple := make([]engine.Val, len(args))
	for i, a := range args {
		tuple[i] = db.inner.Store.Const(a)
	}
	db.inner.MustInsert(pred, tuple...)
}

// FactTerms inserts a fact whose arguments are parsed as ground terms,
// e.g. db.FactTerms("m", "[a,b,c]").
func (db *DB) FactTerms(pred string, args ...string) error {
	tuple := make([]engine.Val, len(args))
	for i, a := range args {
		t, err := parser.ParseTerm(a)
		if err != nil {
			return err
		}
		v, err := db.inner.Store.FromAST(t)
		if err != nil {
			return err
		}
		tuple[i] = v
	}
	_, err := db.inner.Insert(pred, tuple...)
	return err
}

// Count returns the number of facts for pred.
func (db *DB) Count(pred string) int { return db.inner.Count(pred) }

// Engine exposes the underlying engine database for advanced use.
func (db *DB) Engine() *engine.DB { return db.inner }

// Result is the outcome of a Run.
type Result struct {
	// Strategy that produced this result.
	Strategy Strategy
	// Answers are the query's answers projected to its free argument
	// positions, rendered "(v1,...,vk)".
	Answers []string
	// Facts, Inferences, Iterations and MaxIDBArity are the uniform cost
	// measures; see pipeline.RunResult.
	Facts       int
	Inferences  int
	Iterations  int
	MaxIDBArity int
	// Trace is the run's span tree and Rules its exact per-rule counters
	// when tracing is on (WithTrace); both nil otherwise.
	Trace *Trace
	Rules []RuleStats
	// EvalWall is the evaluation's wall-clock time.
	EvalWall time.Duration
	// Storage is the database's storage shape after evaluation: tuple-arena
	// and hash-index bytes plus table load factors.
	Storage StorageStats
	// Degraded reports that a parallel run (WithWorkers > 1) lost a worker
	// to a panic and the answers come from the automatic sequential retry.
	Degraded bool
	// Executor names the bottom-up schedule that ran: "stream" under
	// WithStreaming (stratum by stratum), "materialize" for the global
	// semi-naive or naive loop, empty for top-down strategies. Stream
	// carries the stratified schedule's counters when Executor is "stream";
	// nil otherwise.
	Executor string
	Stream   *StreamStats
	// AutoPicked reports that the run was requested as Auto and Strategy is
	// the optimizer's pick; Candidates is the table it chose from.
	AutoPicked bool
	Candidates []CandidateInfo

	raw *pipeline.RunResult
}

// Profile renders the result's summary lines and, when tracing was
// enabled, its span tree and per-rule counter table.
func (r *Result) Profile() string {
	if r.raw == nil {
		return ""
	}
	return pipeline.ProfileTable(r.raw, r.Trace)
}

// Run evaluates the query over db with the given strategy. The db is
// consumed (derived relations are added); create a fresh one per run.
func (s *System) Run(strategy Strategy, db *DB) (*Result, error) {
	return s.run(strategy, db, s.evalOpts)
}

// run is Run under explicit options; a traced run records into a trace of
// its own.
func (s *System) run(strategy Strategy, db *DB, opts engine.Options) (*Result, error) {
	var tc *trace.Context
	if opts.Trace {
		tc = trace.New(trace.NewID())
		opts.Span = tc.Root()
	}
	r, err := s.pl.Run(strategy, db.inner, opts)
	tc.Finish()
	if err != nil {
		return nil, err
	}
	res := newResult(r)
	res.Trace = tc
	return res, nil
}

// newResult converts a pipeline run into the facade shape.
func newResult(r *pipeline.RunResult) *Result {
	return &Result{
		Strategy:    r.Strategy,
		Answers:     pipeline.SortedAnswers(r),
		Facts:       r.Facts,
		Inferences:  r.Inferences,
		Iterations:  r.Iterations,
		MaxIDBArity: r.MaxIDBArity,
		Rules:       r.Rules,
		EvalWall:    r.EvalWall,
		Storage:     r.Storage,
		Degraded:    r.Degraded,
		Executor:    r.Executor,
		Stream:      r.Stream,
		AutoPicked:  r.AutoPicked,
		Candidates:  r.Candidates,
		raw:         r,
	}
}

// Prepared is a query compiled ahead of time for one strategy: the
// transformation chain (adorn, magic, factor, optimize, ...) ran at Prepare
// time, so each Run pays only evaluation cost. A Prepared is safe for
// concurrent Runs, each over its own DB — the shape a long-lived server
// wants (see cmd/factorlogd, which adds a plan cache over the same idea).
type Prepared struct {
	sys      *System
	strategy Strategy
}

// Prepare compiles the system's query for one strategy. It fails where
// Run would fail to transform (e.g. Factored on a non-factorable program),
// so errors surface at startup instead of per request.
func (s *System) Prepare(strategy Strategy) (*Prepared, error) {
	if err := s.pl.Compile(strategy); err != nil {
		return nil, err
	}
	return &Prepared{sys: s, strategy: strategy}, nil
}

// Strategy returns the strategy the query was prepared for.
func (p *Prepared) Strategy() Strategy { return p.strategy }

// Run evaluates the prepared query over db under ctx; cancellation and
// deadlines surface as ErrCanceled / ErrDeadlineExceeded. The db is
// consumed (derived relations are added); create a fresh one per run.
func (p *Prepared) Run(ctx context.Context, db *DB) (*Result, error) {
	opts := p.sys.evalOpts
	opts.Context = ctx
	return p.sys.run(p.strategy, db, opts)
}

// Compare runs all the given strategies, each over a fresh copy of the
// EDB; it fails if any two available strategies disagree on the answers.
// Unavailable strategies are reported in skipped.
func (s *System) Compare(strategies []Strategy, load func() *DB) (results []*Result, skipped map[Strategy]error, err error) {
	raw, sk, err := s.pl.Compare(strategies, func() *engine.DB { return load().inner }, s.evalOpts)
	for _, r := range raw {
		results = append(results, newResult(r))
	}
	return results, sk, err
}

// Explanation holds the program a strategy would evaluate, plus transform
// metadata where applicable.
type Explanation struct {
	Strategy Strategy
	Program  string
	// Class is the factorability certificate ("" when not applicable).
	Class string
	// Reduced lists the static-argument reductions (Def. 5.2) the factoring
	// strategies applied before factoring; empty when none did.
	Reduced []string
	// Trace lists the optimization steps (FactoredOptimized only).
	Trace []string
}

// resolve turns Auto into the planner's pick over the Load source's facts,
// with the candidate table it chose from; a fixed strategy is returned as is.
func (s *System) resolve(strategy Strategy) (Strategy, []CandidateInfo, error) {
	if strategy != Auto {
		return strategy, nil, nil
	}
	dec, err := s.pl.AutoPick(cost.SnapshotFromVersion(s.base.Current()))
	if err != nil {
		return strategy, nil, err
	}
	return dec.Strategy, dec.Candidates, nil
}

// Explain returns the transformed program for a strategy without
// evaluating anything.
func (s *System) Explain(strategy Strategy) (*Explanation, error) {
	strategy, _, err := s.resolve(strategy)
	if err != nil {
		return nil, err
	}
	info, err := s.pl.Explain(strategy)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{Strategy: strategy, Program: s.pl.Program.String()}
	if pipeline.MaterializableStrategy(strategy) {
		prog, _, _, err := s.pl.MaterializedProgram(strategy)
		if err != nil {
			return nil, err
		}
		ex.Program = prog.String()
	}
	// The certificate and the clean-up trace belong to the stages that
	// produce them, whichever strategies chain through those stages.
	for _, st := range info.Stages {
		switch st.Name {
		case "factor":
			fr, _ := s.pl.FactoredProgram()
			ex.Class = fr.Certificate()
			for _, step := range fr.Reduced {
				ex.Reduced = append(ex.Reduced, step.String())
			}
		case "optimize":
			opt, _ := s.pl.OptimizedProgram()
			ex.Trace = opt.Trace
		}
	}
	return ex, nil
}

// PlanInfo re-exports the structured plan description EXPLAIN serves: the
// applied reductions, the transformed rule set, and the stratum schedule.
type PlanInfo = pipeline.ExplainInfo

// Plan compiles strategy (memoized, like Prepare) and describes the
// resulting plan; render it with PlanInfo.Text or JSON-marshal it. It fails
// where Run would fail to transform. Plan(Auto) runs the plan search over
// the Load source's facts, explains the winner, and attaches the candidate
// table (servers with live EDBs substitute their own statistics; see
// cmd/factorlogd).
func (s *System) Plan(strategy Strategy) (*PlanInfo, error) {
	strategy, candidates, err := s.resolve(strategy)
	if err != nil {
		return nil, err
	}
	info, err := s.pl.Explain(strategy)
	if err != nil {
		return nil, err
	}
	info.Candidates = candidates
	return info, nil
}

// Classify reports which factorability theorem (if any) applies to the
// Magic program of this system, with the per-class reasons on failure.
func (s *System) Classify() (string, error) {
	fr, err := s.pl.FactoredProgram()
	if err != nil {
		return "", err
	}
	return fr.Certificate(), nil
}

// FormatTable renders results as an aligned comparison table; columns adapt
// to the contents (see pipeline.Table).
func FormatTable(results []*Result) string {
	raw := make([]*pipeline.RunResult, 0, len(results))
	for _, r := range results {
		if r.raw != nil {
			raw = append(raw, r.raw)
		}
	}
	return pipeline.Table(raw)
}

// FormatResult renders a result compactly.
func FormatResult(r *Result) string {
	return fmt.Sprintf("%s: %d answers, %d inferences, %d facts, %d iterations, max arity %d\nanswers: %s",
		r.Strategy, len(r.Answers), r.Inferences, r.Facts, r.Iterations, r.MaxIDBArity,
		strings.Join(r.Answers, " "))
}

// ErrMutation is returned by Materialized.Apply (and Assert/Retract) when
// a batch is invalid — a non-ground atom or an arity mismatch. The batch is
// rejected whole; test with errors.Is.
var ErrMutation = engine.ErrMutation

// Materialized is a live, incrementally-maintained view of one strategy's
// fixpoint over the System's base facts. Assert and Retract mutate the
// base in atomic batches; each effective batch advances the view's epoch
// and updates the fixpoint by counting-based semi-naive deltas (DRed-style
// stratum rebuilds when a retraction reaches a recursive stratum) instead
// of recomputing from scratch. Answers always reflect the last successful
// epoch. Not safe for concurrent use.
type Materialized struct {
	sys         *System
	mat         *engine.Materialization
	query       ast.Atom
	transformed bool
}

// Materialize builds the materialized view for strategy: the strategy's
// program is compiled once and its fixpoint computed over the Load
// source's facts. Top-down strategies (TopDown, Tabled) have no
// materialized program and are rejected. The view honors the System's
// WithBudget and WithMemoryBudget bounds per mutation batch.
func (s *System) Materialize(strategy Strategy) (*Materialized, error) {
	if !pipeline.MaterializableStrategy(strategy) {
		return nil, fmt.Errorf("factorlog: strategy %v is not materializable", strategy)
	}
	prog, query, transformed, err := s.pl.MaterializedProgram(strategy)
	if err != nil {
		return nil, err
	}
	ctx := s.evalOpts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// Keep every predicate of the Load source, named by the strategy's
	// program or not: BaseCount and later Retracts speak of all of them.
	v := s.base.Current()
	mat, err := engine.MaterializeVersion(ctx, prog, v, engine.MaterializeOptions{
		MaxFacts: s.evalOpts.MaxFacts,
		MaxBytes: s.evalOpts.MaxBytes,
	}, v.Preds()...)
	if err != nil {
		return nil, err
	}
	return &Materialized{sys: s, mat: mat, query: query, transformed: transformed}, nil
}

// Assert adds ground facts (e.g. `m.Assert("e(1,2)", "e(2,3)")`) as one
// atomic batch, returning the epoch after it.
func (m *Materialized) Assert(facts ...string) (int64, error) {
	return m.Apply(facts, nil)
}

// Retract removes ground facts as one atomic batch, returning the epoch
// after it. Retracting an absent fact is a no-op, not an error.
func (m *Materialized) Retract(facts ...string) (int64, error) {
	return m.Apply(nil, facts)
}

// Apply applies one batch of assertions and retractions (retractions
// first, so a fact in both lists ends up present). The batch is atomic:
// an invalid atom rejects it whole with ErrMutation, and a mid-batch
// failure rolls the base back to the previous epoch.
func (m *Materialized) Apply(assert, retract []string) (int64, error) {
	assertAtoms, err := serve.ParseFacts(assert)
	if err != nil {
		return m.mat.Epoch(), fmt.Errorf("%w: %v", ErrMutation, err)
	}
	retractAtoms, err := serve.ParseFacts(retract)
	if err != nil {
		return m.mat.Epoch(), fmt.Errorf("%w: %v", ErrMutation, err)
	}
	ctx := m.sys.evalOpts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := m.mat.Apply(ctx, assertAtoms, retractAtoms); err != nil {
		return m.mat.Epoch(), err
	}
	return m.mat.Epoch(), nil
}

// Epoch returns the number of effective mutation batches applied since the
// view was built.
func (m *Materialized) Epoch() int64 { return m.mat.Epoch() }

// BaseCount returns the number of live base (asserted) facts.
func (m *Materialized) BaseCount() int { return m.mat.BaseCount() }

// Answers returns the query's current answers, sorted, in the same
// projected "(v1,...,vk)" rendering Run produces.
func (m *Materialized) Answers() ([]string, error) {
	set, err := m.sys.pl.ProjectAnswers(m.mat.DB(), m.query, m.transformed)
	if err != nil {
		return nil, err
	}
	return pipeline.SortedAnswers(&pipeline.RunResult{Answers: set}), nil
}
