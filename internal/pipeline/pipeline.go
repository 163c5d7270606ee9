package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/cost"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/topdown"
	"factorlog/internal/trace"
)

// Pipeline prepares and caches the transformations of one (program, query)
// pair.
type Pipeline struct {
	Program *ast.Program
	Query   ast.Atom
	// Constraints are optional full TGDs the EDB satisfies; they widen the
	// factorable classes (see package cq).
	Constraints []ast.Rule

	// mu guards the stage memo and the stage log below, making a Pipeline safe
	// for concurrent Runs (the plan cache hands one Pipeline to many server
	// requests). Evaluation itself never holds mu — only the compile-once
	// bookkeeping does.
	mu sync.Mutex

	// memo holds each rewrite stage's outcome once it has run (see stage).
	memo [numStages]stageMemo
	// source is the engine compile of Program, for the strategies that
	// evaluate it as written (see compiledProgram).
	source compiledMemo

	// stageLog measures each transformation stage the first time it runs,
	// in run order (the outcomes above are memoized, so each stage appears
	// at most once).
	stageLog []stageRecord

	// tmpl and bound make this pipeline a query's instantiation of a plan
	// template (see template.go): its stages are tmpl's, rewritten through
	// bound. Both are nil on a pipeline that compiles its own query.
	tmpl  *Pipeline
	bound *binding
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

// stageRecord measures one rewrite stage the time it ran: wall time, heap
// delta, and the deltas the paper cares about — rule count and maximum IDB
// arity. The stage memo keeps it because it outlives any one query's
// trace: a traced Run replays it as a cached span, and EXPLAIN serves it as
// one of the plan's stages.
type stageRecord struct {
	// Name identifies the stage (adorn, magic, factor, optimize, counting,
	// sup-magic).
	Name string `json:"name"`
	// Wall is the stage's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
	// RulesBefore/RulesAfter are the rule counts of the input and output
	// programs.
	RulesBefore int `json:"rules_before"`
	RulesAfter  int `json:"rules_after"`
	// ArityBefore/ArityAfter are the maximum IDB arities of the input and
	// output programs — the paper's argument-reduction metric.
	ArityBefore int `json:"arity_before"`
	ArityAfter  int `json:"arity_after"`
	// Allocs/AllocBytes are the heap allocation count and bytes the stage
	// performed (see startStage).
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Err is set when the stage failed (e.g. a non-factorable program).
	Err string `json:"error,omitempty"`
}

// stageStart marks the beginning of a rewrite stage or an evaluation: its
// wall clock and, when sampled, the process heap counters, so allocs can
// report the allocation delta alongside the wall time.
type stageStart struct {
	t       time.Time
	sampled bool
	mallocs uint64
	bytes   uint64
}

// startStage samples the wall clock and, if asked, the allocation counters.
// Rewrite stages always sample; evaluations only when they record a span —
// ReadMemStats briefly stops the world, and untraced server queries should
// not pay that per request. The counters are process-wide
// (runtime.MemStats), so the delta attributes concurrent allocations to the
// stage too; rewrite stages run once under the pipeline lock, where the
// attribution is accurate in practice.
func startStage(sampled bool) stageStart {
	st := stageStart{sampled: sampled}
	if sampled {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st.mallocs, st.bytes = ms.Mallocs, ms.TotalAlloc
	}
	st.t = time.Now()
	return st
}

// allocs returns the heap allocation count and bytes since start, zero when
// start was not sampled.
func (start stageStart) allocs() (count, bytes uint64) {
	if !start.sampled {
		return 0, 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - start.mallocs, ms.TotalAlloc - start.bytes
}

// stageFrom closes the stage start opened; out is nil when the stage failed
// and has no output program.
func stageFrom(name string, start stageStart, in, out *ast.Program, err error) stageRecord {
	rec := stageRecord{Name: name, Wall: time.Since(start.t)}
	rec.Allocs, rec.AllocBytes = start.allocs()
	rec.RulesBefore, rec.ArityBefore = len(in.Rules), maxIDBArity(in)
	if out != nil {
		rec.RulesAfter, rec.ArityAfter = len(out.Rules), maxIDBArity(out)
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
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
	// Rules carries the engine's exact per-rule counters when
	// engine.Options.Trace (or Span) is set (bottom-up strategies only; nil
	// otherwise). Where the time went is the span tree's to say.
	Rules []obsv.RuleStats
	// EvalWall is the evaluation's wall-clock time.
	EvalWall time.Duration
	// Storage is the database's storage shape after evaluation: arena and
	// index bytes, table counts, and hash-table load factors.
	Storage obsv.StorageStats
	// Degraded reports that a parallel evaluation lost a worker to a panic
	// and the answers come from the sequential retry (engine.Stats.Degraded).
	Degraded bool
	// Executor names the bottom-up schedule that ran: "stream" when the
	// engine evaluated the program stratum by stratum (engine.StreamAuto:
	// one pass per non-recursive stratum, semi-naive rounds per recursive
	// one), "materialize" for the global semi-naive or naive loop. Empty for
	// top-down strategies.
	Executor string
	// Stream carries the stratified schedule's counters (strata, one-pass
	// strata, rows and duplicates they emitted, probe-key columns); nil
	// unless Executor is "stream".
	Stream *obsv.StreamStats
	// AutoPicked reports that the run was requested under the Auto strategy
	// and Strategy is the concrete winner the planner resolved it to.
	AutoPicked bool
	// Candidates is the planner's candidate table (estimated costs, chosen
	// and rejection reasons) when AutoPicked is set; nil otherwise.
	Candidates []CandidateInfo
}

// evalProgram runs one bottom-up evaluation. It returns the engine stats,
// the stratified schedule's counters (nil unless the options selected it)
// and the executor name that reports the schedule.
func evalProgram(prog *ast.Program, db *engine.DB, opts engine.Options) (engine.Stats, *obsv.StreamStats, string, error) {
	res, err := engine.Eval(prog, db, opts)
	if err != nil {
		return engine.Stats{}, nil, "", err
	}
	if res.Stream != nil {
		return res.Stats, res.Stream, "stream", nil
	}
	return res.Stats, nil, "materialize", nil
}

// attachStageSpans replays the memoized transformation stages of s under
// parent as pre-measured (Cached) spans — their wall time was paid when the
// pipeline compiled, possibly by an earlier query.
func (pl *Pipeline) attachStageSpans(s Strategy, parent *trace.Span) {
	for _, rec := range pl.stagesFor(s) {
		parent.AddFinished(rec.Name, rec.Wall).
			SetAllocs(rec.Allocs, rec.AllocBytes).
			SetCached(true).
			SetNote(fmt.Sprintf("rules %d→%d, arity %d→%d",
				rec.RulesBefore, rec.RulesAfter, rec.ArityBefore, rec.ArityAfter))
	}
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
		pl.attachStageSpans(s, evalOpts.Span)
	}
	row := s.row()
	if row.eval == sld || row.eval == tabled {
		return pl.runTopDown(s, row.eval, db, evalOpts.Span)
	}
	if len(row.chain) == 0 {
		evalOpts.Strategy = row.mode
	}
	// A bottom-up strategy evaluates its materialized program; anything else
	// left (a Strategy value outside the table) fails here.
	prog, query, transformed, err := pl.MaterializedProgram(s)
	if err != nil {
		return nil, err
	}
	start := startStage(evalOpts.Span != nil)
	evalSp := evalOpts.Span.Child("eval")
	evalOpts.Span = evalSp
	stats, streamStats, executor, err := evalProgram(prog, db, evalOpts)
	evalSp.End()
	evalWall := time.Since(start.t)
	if err != nil {
		return nil, err
	}
	evalSp.SetAllocs(start.allocs()).AddTuplesOut(int64(stats.Derived))
	answers, err := pl.ProjectAnswers(db, query, transformed)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Strategy:    s,
		Answers:     answers,
		Facts:       stats.Derived,
		Inferences:  stats.Inferences,
		Iterations:  stats.Iterations,
		MaxIDBArity: maxIDBArity(prog),
		Program:     prog,
		Rules:       stats.Rules,
		EvalWall:    evalWall,
		Storage:     db.StorageStats(),
		Degraded:    stats.Degraded,
		Executor:    executor,
		Stream:      streamStats,
	}, nil
}

// runTopDown proves the query goal-directed on the source program, with the
// SLD or the tabled evaluator, and reports its counters in RunResult's
// bottom-up vocabulary. Under span tracing the proof is parent's "eval" span.
func (pl *Pipeline) runTopDown(s Strategy, eval evaluator, db *engine.DB, parent *trace.Span) (*RunResult, error) {
	evalSp := parent.Child("eval")
	defer evalSp.End()
	start := time.Now()
	var proved []ast.Atom
	var facts, steps, depth int
	if eval == tabled {
		res, err := topdown.SolveTabled(pl.Program, db, pl.Query, topdown.Options{})
		if err != nil {
			return nil, err
		}
		proved, facts, steps, depth = res.Answers, res.Stats.Answers, res.Stats.Steps, res.Stats.Rounds
	} else {
		// Budget tightly: like Prolog, SLD diverges on left recursion (the
		// first dive of the non-linear transitive closure rule) and on
		// cyclic data. Substitutions grow with depth, so a deep dive costs
		// O(depth^2) live map entries — keep the cap moderate. A budget
		// error makes Compare report the strategy as unavailable.
		res, err := topdown.Solve(pl.Program, db, pl.Query, topdown.Options{
			MaxDepth: 1000,
			MaxSteps: 5_000_000,
		})
		if err != nil {
			return nil, err
		}
		proved, facts, steps, depth = res.Answers, res.Stats.IDBSuccesses, res.Stats.Steps, res.Stats.MaxDepthSeen
	}
	evalWall := time.Since(start)
	answers := map[string]bool{}
	free := pl.freePositions()
	parts := make([]string, len(free))
	for _, a := range proved {
		for i, p := range free {
			parts[i] = a.Args[p].String()
		}
		answers["("+strings.Join(parts, ",")+")"] = true
	}
	return &RunResult{
		Strategy:    s,
		Answers:     answers,
		Facts:       facts,
		Inferences:  steps,
		Iterations:  depth,
		MaxIDBArity: maxIDBArity(pl.Program),
		Program:     pl.Program,
		EvalWall:    evalWall,
		Storage:     db.StorageStats(),
	}, nil
}

// ProjectAnswers reads a bottom-up evaluation's answers from db, given the
// answer atom and transformed flag MaterializedProgram returned. A rewritten
// program answers on its own query predicate; the source program's tuples
// matching the original query are projected onto its free positions — the
// answer shape every strategy shares.
func (pl *Pipeline) ProjectAnswers(db *engine.DB, query ast.Atom, transformed bool) (map[string]bool, error) {
	answers, err := pl.answerStrings(db, query, transformed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(answers))
	for _, a := range answers {
		out[a] = true
	}
	return out, nil
}

// ProjectSorted reads the answers ProjectAnswers reads as one sorted
// list, never nil, without building a set: distinct tuples render
// distinct answers, so the list holds no duplicates.
func (pl *Pipeline) ProjectSorted(db *engine.DB, query ast.Atom, transformed bool) ([]string, error) {
	answers, err := pl.answerStrings(db, query, transformed)
	if err != nil {
		return nil, err
	}
	sort.Strings(answers)
	return answers, nil
}

// answerStrings renders the answers in relation order: a rewritten
// program's whole answer tuples, or the source program's tuples that match
// the original query projected on its free positions.
func (pl *Pipeline) answerStrings(db *engine.DB, query ast.Atom, transformed bool) ([]string, error) {
	if !transformed {
		return engine.AnswerStrings(db, pl.Query, pl.freePositions())
	}
	cols := make([]int, len(query.Args))
	for i := range cols {
		cols[i] = i
	}
	return engine.AnswerStrings(db, query, cols)
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

// ProfileTable renders one run's profile: header lines (strategy, executor,
// stream and storage summaries), then tc's span tree — compile stages, eval,
// and the engine's strata, rounds, rules and workers — then, when the
// evaluation was traced, the per-rule counter table. tc is the trace the
// run recorded into, or nil.
func ProfileTable(r *RunResult, tc *trace.Context) string {
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
	b.WriteString(tc.Profile())
	if len(r.Rules) > 0 {
		b.WriteByte('\n')
		b.WriteString(obsv.RuleTable(r.Rules))
	}
	return b.String()
}

// JSONPlain reports whether every string encodes as JSON by quoting alone.
// A string is not plain if it holds a byte encoding/json escapes by
// default (a control byte, '"', '\\', '<', '>', '&') or any byte >= 0x80,
// which covers invalid UTF-8 and U+2028/U+2029.
func JSONPlain(strs ...string) bool {
	for _, s := range strs {
		for i := 0; i < len(s); i++ {
			if !jsonPlainByte[s[i]] {
				return false
			}
		}
	}
	return true
}

// jsonPlainByte marks the bytes JSONPlain lets through.
var jsonPlainByte = func() (t [256]bool) {
	for b := 0x20; b < 0x80; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// SortedAnswers renders a run's answers sorted, for display.
func SortedAnswers(r *RunResult) []string {
	out := make([]string, 0, len(r.Answers))
	for a := range r.Answers {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
