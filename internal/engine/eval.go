package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"factorlog/internal/ast"
	"factorlog/internal/depgraph"
	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
	"factorlog/internal/trace"
)

// Strategy selects the fixpoint algorithm.
type Strategy int

const (
	// SemiNaive evaluates each rule once per recursive body occurrence per
	// round, with the classic delta discipline: occurrences before the
	// delta position range over P_{r-1}, the delta position over the facts
	// derived in round r, and occurrences after it over P_r. Tuples carry
	// their insertion round, so no relation copying is needed.
	//
	// Round 0 joins every rule in its written order. A delta pass whose
	// delta is not the first literal joins led by the delta instead,
	// whenever the delta window is a shorter scan than the first literal
	// (see runner.passOrder): a magic rule's demand literal is then probed
	// with bound arguments rather than rescanned every round. The counts
	// cannot tell the orders apart: every window of a pass ends at round r
	// and the pass's derivations are stamped r+1, so the pass finds the same
	// body instantiations in any order.
	SemiNaive Strategy = iota
	// Naive re-evaluates every rule against the full database each round.
	Naive
)

func (s Strategy) String() string {
	switch s {
	case SemiNaive:
		return "semi-naive"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ErrBudgetExceeded is returned (wrapped) when evaluation exceeds
// MaxIterations or MaxFacts; used to bound deliberately divergent programs
// such as the Counting transformation of a left-linear recursion (§6.4).
// Callers distinguish budget stops from real failures with errors.Is.
var ErrBudgetExceeded = errors.New("evaluation budget exceeded")

// ErrCanceled is returned (wrapped) when Options.Context is canceled before
// the fixpoint completes. The sequential evaluator notices cancellation at
// round boundaries and every few thousand inferences inside a round; the
// parallel evaluator additionally has its workers observe cancellation
// mid-round. Callers test with errors.Is.
var ErrCanceled = errors.New("evaluation canceled")

// ErrDeadlineExceeded is returned (wrapped) when Options.Context's deadline
// passes before the fixpoint completes; it is noticed at the same points as
// ErrCanceled. Callers test with errors.Is.
var ErrDeadlineExceeded = errors.New("evaluation deadline exceeded")

// ErrMemoryBudget is returned (wrapped) when the database's storage
// footprint (tuple arenas + hash indexes, the same accounting
// DB.StorageStats reports) exceeds Options.MaxBytes. It is checked at
// round boundaries, so one round of overshoot is possible; see
// docs/RESILIENCE.md for the sizing rationale. Callers test with errors.Is.
var ErrMemoryBudget = errors.New("evaluation memory budget exceeded")

// ErrBadOptions is returned by Eval when Options carry values outside their
// domain (negative Workers, MaxIterations, MaxFacts, or MaxBytes). Callers
// test with errors.Is.
var ErrBadOptions = errors.New("engine: invalid options")

// contextErr maps ctx's terminal state to the engine's typed errors; it
// returns nil while ctx is live (or nil).
func contextErr(ctx context.Context) error {
	faultinject.Hit(faultinject.ContextCheck)
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := context.Cause(ctx)
		if errors.Is(cause, context.DeadlineExceeded) {
			return fmt.Errorf("%w: %v", ErrDeadlineExceeded, cause)
		}
		return fmt.Errorf("%w: %v", ErrCanceled, cause)
	default:
		return nil
	}
}

// StreamMode selects the schedule of a sequential semi-naive evaluation:
// one fixpoint over the whole program, or the program's strata one at a
// time. Both run every rule body through the same join (runner.join); the
// stratified schedule only orders the passes differently.
//
// The zero value keeps the global loop: the paper's cost measures
// (Inferences, Iterations) assume standard semi-naive evaluation, and the
// experiment reproductions must keep reporting them unchanged.
type StreamMode int

const (
	// StreamOff evaluates the whole program as one semi-naive fixpoint.
	StreamOff StreamMode = iota
	// StreamAuto evaluates the strata of the program's dependency graph in
	// topological order (package depgraph). A non-recursive stratum reads
	// only complete lower strata, so one pass over its rules derives all of
	// it; a recursive stratum runs semi-naive rounds over its own rules.
	// Answer sets and relation contents equal StreamOff's; Inferences and
	// Iterations differ (a non-recursive stratum never pays the delta round
	// that finds nothing new). It applies to the sequential semi-naive
	// evaluator without provenance; see Options.stratified.
	StreamAuto
)

func (m StreamMode) String() string {
	switch m {
	case StreamOff:
		return "off"
	case StreamAuto:
		return "auto"
	default:
		return fmt.Sprintf("StreamMode(%d)", int(m))
	}
}

// Options configures evaluation.
type Options struct {
	Strategy Strategy
	// Context, when non-nil, bounds the evaluation's lifetime: cancellation
	// or a deadline terminates the fixpoint with ErrCanceled or
	// ErrDeadlineExceeded (both wrapped, test with errors.Is). The partial
	// derived state left in the DB is valid but incomplete; discard it.
	Context context.Context
	// Workers sets the number of evaluation goroutines. 0 and 1 select the
	// exact sequential evaluator; N > 1 evaluates the program stratum by
	// stratum (SCC schedule, see internal/depgraph) with each stratum's
	// rounds fanned out over N workers deriving into private buffers that
	// merge at the round barrier. Parallel evaluation applies to the
	// SemiNaive strategy without provenance; Naive and provenance-recording
	// runs always execute sequentially. Answer sets and Stats.Derived are
	// identical across worker counts; Stats.Iterations counts per-stratum
	// rounds in parallel mode and relation insertion order is not
	// deterministic across parallel runs.
	Workers int
	// MaxIterations bounds fixpoint rounds; 0 means unlimited.
	MaxIterations int
	// MaxFacts bounds the total number of derived facts; 0 means unlimited.
	MaxFacts int
	// MaxBytes bounds the database's storage footprint (tuple arenas plus
	// hash indexes, as DB.StorageStats accounts them) during evaluation; 0
	// means unlimited. The bound is enforced at round boundaries, so an
	// evaluation may overshoot by at most one round's derivations before
	// failing with ErrMemoryBudget.
	MaxBytes int64
	// Provenance records one derivation per fact (Definition 2.1 trees).
	Provenance bool
	// ReorderJoins lets the compiler greedily reorder body literals so the
	// most-bound literal runs first. Off by default: the paper's cost
	// discussions assume the written left-to-right order.
	ReorderJoins bool
	// Trace records exact per-rule counters in Stats.Rules. Off by default:
	// with tracing off the hot path pays a nil check per event and allocates
	// nothing. Where time went is Span's job, not Trace's.
	Trace bool
	// Streaming selects the evaluation schedule (see StreamMode). It is
	// honored by the semi-naive strategy without provenance; Naive and
	// provenance runs ignore it, and Workers > 1 is stratified already.
	Streaming StreamMode
	// Span, when non-nil, receives a query-scoped span tree of the
	// evaluation (package trace, the one record of where time went): round
	// and rule-pass spans sequentially; stratum, round, rule and worker
	// spans in parallel mode. Setting Span implies Trace (the rule spans'
	// tuple counts are read off the per-rule counters). Spans are recorded
	// per stage/stratum/round/rule — never per tuple — and the trace's span
	// cap bounds the memory one query can hold; a nil Span costs the same
	// single nil check as Trace=false.
	Span *trace.Span
}

// validate rejects option values outside their domain up front, so a typo
// like Workers: -4 fails loudly instead of silently evaluating sequentially.
func (o Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers = %d (want >= 0)", ErrBadOptions, o.Workers)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("%w: MaxIterations = %d (want >= 0)", ErrBadOptions, o.MaxIterations)
	}
	if o.MaxFacts < 0 {
		return fmt.Errorf("%w: MaxFacts = %d (want >= 0)", ErrBadOptions, o.MaxFacts)
	}
	if o.MaxBytes < 0 {
		return fmt.Errorf("%w: MaxBytes = %d (want >= 0)", ErrBadOptions, o.MaxBytes)
	}
	if o.Streaming < StreamOff || o.Streaming > StreamAuto {
		return fmt.Errorf("%w: Streaming = %d (want StreamOff or StreamAuto)", ErrBadOptions, int(o.Streaming))
	}
	return nil
}

// stratified reports whether opts select the stratified schedule. This is
// the one place the rule lives: StreamAuto is a schedule of the semi-naive
// delta discipline, so it is ignored under Naive, and under Provenance,
// whose derivation records assume the global loop's rounds. With
// Workers > 1 the parallel evaluator runs strata anyway.
func (o Options) stratified() bool {
	return o.Streaming == StreamAuto && o.Strategy == SemiNaive && !o.Provenance
}

// memBudgetErr checks db's storage footprint against maxBytes (0 = no
// bound); both evaluators call it at round boundaries.
func memBudgetErr(db *DB, maxBytes int64) error {
	if maxBytes <= 0 {
		return nil
	}
	st := db.StorageStats()
	if used := st.ArenaBytes + st.IndexBytes; used > maxBytes {
		return fmt.Errorf("%w: %d bytes in arenas+indexes > MaxBytes %d", ErrMemoryBudget, used, maxBytes)
	}
	return nil
}

// Stats reports the work an evaluation performed.
type Stats struct {
	// Inferences counts successful rule-body instantiations, including
	// those that re-derive known facts. This is the paper's cost measure.
	Inferences int
	// Derived counts distinct facts added by rules (excludes EDB facts).
	Derived int
	// Iterations counts fixpoint rounds.
	Iterations int
	// Rules holds per-rule counters, indexed by rule position in the
	// program; nil unless Options.Trace.
	Rules []obsv.RuleStats
	// Degraded reports that a parallel evaluation hit a worker panic and
	// the result was produced by the sequential retry. Derived counts only
	// the retry's insertions (facts merged before the panic are already in
	// the DB), so it may undercount relative to a clean run.
	Degraded bool
}

// Result is the outcome of an evaluation. The DB passed to Eval is mutated
// in place and also referenced here.
type Result struct {
	DB    *DB
	Stats Stats
	Prov  *Provenance // nil unless Options.Provenance
	// Stream counts what the stratified schedule did; nil unless
	// Options.Streaming selected it (see Options.stratified).
	Stream *obsv.StreamStats
}

// Eval computes the least fixpoint of program p over db (which supplies the
// EDB and receives all derived facts).
//
// Panic isolation: compilation and both evaluators run behind recover
// barriers, so a panic in engine code (or injected via
// internal/faultinject) fails this evaluation with a *PanicError wrapping
// ErrInternal instead of killing the process. A panic inside a parallel
// worker degrades gracefully: the evaluation is retried once sequentially
// over the same DB (every fact merged before the panic is a true fact, and
// the retry re-seeds the fixpoint from the full database) before failing.
// On any error the DB's contents are valid but incomplete; discard them.
func Eval(p *ast.Program, db *DB, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Span != nil {
		opts.Trace = true
	}
	parallel := opts.Workers > 1 && opts.Strategy == SemiNaive && !opts.Provenance
	cp, err := compile(p, opts.ReorderJoins, parallel || opts.stratified())
	if err != nil {
		return nil, err
	}
	if parallel {
		res, err := evalParallelGuarded(db, cp, opts)
		if err == nil || !workerPanicked(err) {
			return res, err
		}
		// Graceful degradation: round stamps left by the parallel rounds
		// are meaningless to a fresh fixpoint, so zero them (everything
		// already derived becomes base state) and re-run sequentially.
		db.resetRounds()
		res, err = evalSequentialGuarded(p, db, cp, opts)
		if res != nil {
			res.Stats.Degraded = true
		}
		return res, err
	}
	return evalSequentialGuarded(p, db, cp, opts)
}

// compileRulesGuarded runs rule compilation behind a recover barrier: a
// compiler panic becomes a typed *PanicError instead of unwinding into the
// caller's process.
func compileRulesGuarded(p *ast.Program, consts constInterner, reorder bool) (rules []*compiledRule, err error) {
	defer recoverTo("compile", &err)
	return compileProgram(p, consts, reorder)
}

// evalSequentialGuarded runs the sequential evaluator behind a recover
// barrier.
func evalSequentialGuarded(p *ast.Program, db *DB, cp *CompiledProgram, opts Options) (res *Result, err error) {
	defer recoverTo("eval", &err)
	ev := &evaluator{
		db:   db,
		prog: cp,
		opts: opts,
		ctx:  opts.Context,
	}
	ev.rn.db = db
	ev.rn.sink = ev.emit
	if opts.Provenance {
		ev.prov = NewProvenance(p)
		ev.rn.prov = ev.prov
	}
	if opts.Trace {
		ev.stats.Rules = newRuleStats(cp.rules)
	}
	ev.span = opts.Span
	if opts.stratified() {
		ev.sched = cp.sched
		ev.stream = &obsv.StreamStats{Strata: len(ev.sched.Strata)}
	}
	if err := ev.run(); err != nil {
		return nil, err
	}
	return &Result{DB: db, Stats: ev.stats, Prov: ev.prov, Stream: ev.stream}, nil
}

// evalParallelGuarded runs the parallel coordinator behind a recover
// barrier. Worker goroutines carry their own barriers (a worker panic
// surfaces as a *PanicError with Where "worker", the degradation trigger);
// this one catches panics on the coordinator itself — merge inserts, index
// builds, scheduling.
func evalParallelGuarded(db *DB, cp *CompiledProgram, opts Options) (res *Result, err error) {
	defer recoverTo("parallel", &err)
	return evalParallel(db, cp, opts)
}

const noLimit = int32(math.MaxInt32)

// roundRange restricts a body literal to tuples inserted in [lo, hi].
type roundRange struct{ lo, hi int32 }

var unrestricted = roundRange{0, noLimit}

type evaluator struct {
	db    *DB
	prog  *CompiledProgram
	opts  Options
	stats Stats
	prov  *Provenance
	ctx   context.Context // nil when the evaluation is unbounded

	curRound int32
	// newCounts holds the facts stamped curRound+1, by predicate id, and
	// deltaCounts the previous round's, the delta the running round joins;
	// the two trade places at every round.
	newCounts, deltaCounts predCounts

	// head is the relation the running pass derives into and headNew the
	// facts it added so far, folded into newCounts when the pass ends.
	head    *Relation
	headNew int

	// sched is the stratum schedule when Options select the stratified
	// one, and stream its counters; both nil for the global loop.
	sched  *depgraph.Schedule
	stream *obsv.StreamStats

	// rn executes rule joins; its sink is ev.emit. Under Options.Trace its
	// cur points into stats.Rules; untraced, stats.Rules is nil and the
	// recording helpers are single nil checks that allocate nothing.
	rn runner

	// span is Options.Span (the evaluation's parent span) and roundSpan the
	// currently open round span; both nil when span tracing is off, and every
	// operation on them is a nil-receiver no-op.
	span      *trace.Span
	roundSpan *trace.Span
}

// runner executes one rule's join over the database. The sequential
// evaluator owns one, the maintainer one, and each parallel worker one;
// sink receives the materialized head tuple of every successful body
// instantiation. A pass resolves what it joins once, in runRule: the
// relation of every body position, read off preds by predicate id, and —
// the first time a position probes — the index it probes, so neither the
// pass nor the join loop does a name lookup, and the join loop does no
// index-set search. The zero-valued parallel fields (frozen, shardMod)
// select the sequential behavior: an index missing at a position's first
// probe is built then (ensureIndex), and no shard filter.
type runner struct {
	db *DB
	// preds is the relation of each predicate of the program being run, by
	// id, and consts its constant table interned in db.Store.
	preds  []*Relation
	consts []Val
	// limits holds the per-literal round windows of the rule being run,
	// keyed by source body position.
	limits []roundRange
	// body is the join order being run — the rule's source body or one of
	// its deltaLed orders — and order maps its positions back to source
	// positions (nil for the source order).
	body  []literalSpec
	order []int
	// prov, when non-nil, makes join collect body fact IDs into children
	// (sequential mode only).
	prov *Provenance
	// children collects the body fact IDs of the current derivation, by
	// source position, when provenance is on (sequential mode only).
	children []FactID
	// cur points at the per-rule trace counters, nil when untraced.
	cur *obsv.RuleStats
	// rels, ixs and rows are per join position of the running pass: its
	// relation, the index it probes (nil until its first probe, and for a
	// scan or a full-key probe), and the one-row postings of a full-key
	// probe, which stays live while deeper positions probe their own.
	rels []*Relation
	ixs  []*index
	rows []int32
	// sink consumes derived head tuples; children is the provenance scratch
	// (valid only until sink returns).
	sink func(r *compiledRule, tuple []Val, children []FactID) error

	// Scratch buffers reused across rule evaluations, so the inner loop
	// allocates nothing: slots is the binding frame, key holds the probe
	// key being assembled for the current literal (dead once Probe
	// returns, so one buffer serves every recursion depth), and head
	// holds the materialized head tuple (consumed synchronously by sink —
	// both sinks copy it before returning).
	slots []Val
	key   []Val
	head  []Val
	// trail records the slots bound along the current join path. Each slot
	// binds at most once per path, so nslots entries always suffice: every
	// recursion level appends into the one backing array and truncates back
	// to its mark, and no level ever grows it.
	trail []int

	// Parallel-mode fields.
	//
	// frozen probes prebuilt indexes read-only (no builds), so concurrent
	// runners never mutate shared relations.
	frozen bool
	// shardMod > 1 restricts the literal at shardLit to positions with
	// pos % shardMod == shardRem, splitting one rule evaluation into
	// disjoint work units.
	shardLit int
	shardMod int32
	shardRem int32
}

// newRuleStats returns the zeroed per-rule counters behind Options.Trace,
// labeled with each rule's source.
func newRuleStats(rules []*compiledRule) []obsv.RuleStats {
	out := make([]obsv.RuleStats, len(rules))
	for i, r := range rules {
		out[i] = obsv.RuleStats{Index: i, Rule: r.label()}
	}
	return out
}

func (ev *evaluator) traceRoundStart() {
	ev.roundSpan = ev.span.Child("round").SetRound(int(ev.curRound))
}

func (ev *evaluator) traceRoundEnd() {
	if ev.roundSpan != nil {
		ev.roundSpan.AddTuplesOut(int64(ev.newCounts.total))
		ev.roundSpan.End()
		ev.roundSpan = nil
	}
}

func (ev *evaluator) traceRule(r *compiledRule) {
	if ev.stats.Rules != nil {
		ev.rn.cur = &ev.stats.Rules[r.idx]
		ev.rn.cur.Firings++
	}
}

func (ev *evaluator) run() error {
	// Materialize head and body relations up front so empty IDB predicates
	// exist, arities are checked, and every head is private to this DB.
	rels, err := prepareRelations(ev.db, ev.prog)
	if err != nil {
		return err
	}
	ev.rn.preds, ev.rn.consts = rels, internConsts(ev.prog.consts, ev.db.Store, nil)
	ev.newCounts.init(len(rels))
	ev.deltaCounts.init(len(rels))

	// Build every planned index up front (compile-time index planning):
	// no probe ever pays a lazy build scan, and inserts keep the indexes
	// current incrementally.
	buildIndexes(rels, ev.prog.rules)

	if err := contextErr(ev.ctx); err != nil {
		return err
	}

	if ev.sched != nil {
		for si := range ev.sched.Strata {
			if err := ev.runStratum(si, &ev.sched.Strata[si]); err != nil {
				return err
			}
		}
	} else if err := ev.fixpoint(ev.prog.rules, false); err != nil {
		return err
	}
	// The loop checks the budget at round starts, which misses growth from
	// a converging final round and from index builds when the fixpoint
	// closes in round 0; one exit check covers both.
	return memBudgetErr(ev.db, ev.opts.MaxBytes)
}

// fixpoint runs rules from ev.curRound. Round 0 evaluates every rule
// against the full database (covers bodyless rules, rules over EDB only,
// and pre-seeded IDB facts). Unless once is set, semi-naive rounds follow
// while facts keep appearing: each rule runs one pass per IDB body
// position whose predicate gained facts in the previous round (Naive: one
// unrestricted pass per rule).
func (ev *evaluator) fixpoint(rules []*compiledRule, once bool) error {
	ev.newCounts.reset()
	ev.traceRoundStart()
	for _, r := range rules {
		if err := ev.evalRule(r, -1); err != nil {
			return err
		}
	}
	ev.traceRoundEnd()
	ev.stats.Iterations++

	for !once && ev.newCounts.total > 0 {
		if err := contextErr(ev.ctx); err != nil {
			return err
		}
		if err := memBudgetErr(ev.db, ev.opts.MaxBytes); err != nil {
			return err
		}
		if ev.opts.MaxIterations > 0 && ev.stats.Iterations >= ev.opts.MaxIterations {
			return fmt.Errorf("%w: %d iterations", ErrBudgetExceeded, ev.stats.Iterations)
		}
		ev.deltaCounts, ev.newCounts = ev.newCounts, ev.deltaCounts
		ev.newCounts.reset()
		ev.curRound++
		ev.traceRoundStart()
		for _, r := range rules {
			if ev.opts.Strategy == Naive {
				if err := ev.evalRule(r, -1); err != nil {
					return err
				}
				continue
			}
			for _, occ := range r.idbOccs {
				if ev.deltaCounts.n[r.body[occ].id] == 0 {
					continue
				}
				if err := ev.evalRule(r, occ); err != nil {
					return err
				}
			}
		}
		ev.traceRoundEnd()
		ev.stats.Iterations++
	}
	return nil
}

// runStratum evaluates stratum si of the schedule StreamAuto selects,
// under a "stratum" span. Every predicate below it is complete, so a
// non-recursive stratum needs its one pass. Like parEvaluator.evalStratum
// it leaves curRound past every stamp the stratum used. That keeps every
// lower stratum's facts stamped at or below the stratum's first round, so
// each window of its delta passes covers them whole, and only the
// stratum's own predicates ever head a delta.
func (ev *evaluator) runStratum(si int, st *depgraph.Stratum) error {
	if err := contextErr(ev.ctx); err != nil {
		return err
	}
	rules := make([]*compiledRule, len(st.Rules))
	for i, ri := range st.Rules {
		rules[i] = ev.prog.rules[ri]
	}
	outer := ev.span
	ev.span = outer.Child("stratum").SetStratum(si)
	if ev.span != nil {
		executor, _ := StratumExecutor(st)
		ev.span.SetNote(executor + ": " + strings.Join(st.Preds, ","))
	}
	inferences, derived := ev.stats.Inferences, ev.stats.Derived
	err := ev.fixpoint(rules, !st.Recursive)
	ev.span.AddTuplesOut(int64(ev.stats.Derived - derived))
	ev.span.End()
	ev.span = outer
	ev.curRound++
	if !st.Recursive {
		addOnePass(ev.stream, rules, ev.stats.Inferences-inferences, ev.stats.Derived-derived)
	}
	if err != nil {
		return err
	}
	return memBudgetErr(ev.db, ev.opts.MaxBytes)
}

// StratumExecutor says how the stratified schedule runs st: "stream", one
// pass, for a non-recursive stratum; "fixpoint", semi-naive rounds, for a
// recursive one. The reason is EXPLAIN's.
func StratumExecutor(st *depgraph.Stratum) (executor, reason string) {
	if st.Recursive {
		return "fixpoint", "recursive: semi-naive rounds over the stratum's rules"
	}
	return "stream", "non-recursive: one pass over complete lower strata"
}

// addOnePass records in s a one-pass stratum of rules that emitted rows,
// derived of them new: the rows, the duplicates, and the columns that key
// the rules' probes (constants and variables bound by earlier literals).
func addOnePass(s *obsv.StreamStats, rules []*compiledRule, emitted, derived int) {
	s.Streamed++
	s.RowsEmitted += int64(emitted)
	s.Duplicates += int64(emitted - derived)
	for _, r := range rules {
		for _, l := range r.body {
			s.Pushdowns += len(l.boundCols)
		}
	}
}

// predCounts counts new facts per predicate id, the per-round and per-wave
// bookkeeping of every evaluator: n by id, ids the ids with a nonzero
// count (so reset clears only those) and total their sum. It is reused,
// never reallocated.
type predCounts struct {
	n     []int
	ids   []int32
	total int
}

// init sizes c for npreds predicates, all at zero.
func (c *predCounts) init(npreds int) {
	c.n = make([]int, npreds)
	c.ids, c.total = c.ids[:0], 0
}

// add counts k more facts of predicate id.
func (c *predCounts) add(id int32, k int) {
	if k == 0 {
		return
	}
	if c.n[id] == 0 {
		c.ids = append(c.ids, id)
	}
	c.n[id] += k
	c.total += k
}

// reset sets every count back to zero.
func (c *predCounts) reset() {
	for _, id := range c.ids {
		c.n[id] = 0
	}
	c.ids, c.total = c.ids[:0], 0
}

// buildIndexes materializes every index the compiled rules declare they
// probe, on rels (a program's relations by predicate id); ensureIndex is
// idempotent, so repeated needs are free — and on a relation aliased from a
// base image the index is usually there already, built by an earlier
// request.
func buildIndexes(rels []*Relation, rules []*compiledRule) {
	for _, r := range rules {
		for _, need := range r.indexNeeds {
			rels[need.pred].ensureIndex(need.cols)
		}
	}
}

// evalRule evaluates one rule. With deltaOcc >= 0 the literal at that body
// position ranges over the current round's delta and the other IDB
// occurrences over P_{r-1} (before it) / P_r (after it).
func (ev *evaluator) evalRule(r *compiledRule, deltaOcc int) error {
	ev.traceRule(r)
	ev.rn.setLimits(r, r.idbOccs, deltaOcc, ev.curRound, unrestricted)
	jo := ev.rn.passOrder(r, deltaOcc)
	ev.head, ev.headNew = ev.rn.preds[r.head], 0
	err := ev.runPass(r, jo)
	ev.newCounts.add(r.head, ev.headNew)
	return err
}

// runPass runs one pass of r in join order jo, under a rule span when a
// round span is open.
func (ev *evaluator) runPass(r *compiledRule, jo *joinOrder) error {
	if ev.roundSpan == nil {
		return ev.rn.runRule(r, jo)
	}
	// Rule-pass span: attribute the pass's probe and derivation deltas read
	// off the per-rule trace counters (Span implies Trace, so cur is set).
	sp := ev.roundSpan.Child("rule").SetRule(r.idx)
	var probes0, derived0 int
	if c := ev.rn.cur; c != nil {
		probes0, derived0 = c.JoinProbes, c.TuplesDerived
	}
	err := ev.rn.runRule(r, jo)
	if c := ev.rn.cur; c != nil {
		sp.SetTuples(int64(c.JoinProbes-probes0), int64(c.TuplesDerived-derived0))
	}
	sp.End()
	return err
}

// setLimits prepares the per-literal round windows for one pass of r — the
// one delta-window rule every evaluator shares. Positions outside occs (the
// body positions taking part in the delta discipline) get rest; with
// deltaOcc >= 0 the positions in occs get the semi-naive windows of pass w:
// [0,w-1] before the delta, [w,w] at it, [0,w] after it.
//
// The callers differ only in w and rest: Eval's rounds pass rest =
// unrestricted (other strata and the EDB are complete); insertion waves
// pass [0,w], so rows the wave itself derives (stamped w+1) stay unseen;
// deletion waves stamp alive rows 0 and dying rows 1 and pass w = 1,
// rest = [0,1].
func (rn *runner) setLimits(r *compiledRule, occs []int, deltaOcc int, w int32, rest roundRange) {
	if cap(rn.limits) < len(r.body) {
		rn.limits = make([]roundRange, len(r.body))
	}
	rn.limits = rn.limits[:len(r.body)]
	for i := range rn.limits {
		rn.limits[i] = rest
	}
	if deltaOcc < 0 {
		return
	}
	for _, occ := range occs {
		switch {
		case occ < deltaOcc:
			rn.limits[occ] = roundRange{0, w - 1}
		case occ == deltaOcc:
			rn.limits[occ] = roundRange{w, w}
		default:
			rn.limits[occ] = roundRange{0, w}
		}
	}
}

// passOrder picks the join order of a delta pass of r whose delta is the
// literal at source position deltaOcc, once its limits are set. The pass
// leads with its delta (r.deltaLed[deltaOcc]) when the delta window is a
// shorter scan than the source order's leading literal, which must then be
// a full scan: a leading literal with bound columns is already a probe, so
// the source order stands. Otherwise, and for the non-delta passes
// (deltaOcc < 1), it returns nil, the source order.
//
// Either order finds the same body instantiations: within a pass every
// window ends at or below the current round or wave, and the pass's own
// emissions are stamped above it, so no literal sees a row the pass
// derived, whatever order the literals are joined in.
func (rn *runner) passOrder(r *compiledRule, deltaOcc int) *joinOrder {
	if deltaOcc < 1 || len(r.body[0].boundCols) > 0 {
		return nil
	}
	lead, delta := rn.preds[r.body[0].id], rn.preds[r.body[deltaOcc].id]
	if delta.windowSpan(rn.limits[deltaOcc].lo) < lead.windowSpan(rn.limits[0].lo) {
		return &r.deltaLed[deltaOcc]
	}
	return nil
}

// runRule runs r's body join under the limits set by setLimits, in the
// join order jo, or in source order when jo is nil.
func (rn *runner) runRule(r *compiledRule, jo *joinOrder) error {
	rn.body, rn.order = r.body, nil
	if jo != nil {
		rn.body, rn.order = jo.body, jo.order
	}
	if cap(rn.slots) < r.nslots {
		rn.slots = make([]Val, r.nslots)
	}
	slots := rn.slots[:r.nslots]
	for i := range slots {
		slots[i] = NoVal
	}
	if cap(rn.trail) < r.nslots {
		rn.trail = make([]int, 0, r.nslots)
	}
	if rn.prov != nil {
		if cap(rn.children) < len(r.body) {
			rn.children = make([]FactID, len(r.body))
		}
		rn.children = rn.children[:len(r.body)]
	}
	n := len(rn.body)
	if cap(rn.rels) < n {
		rn.rels, rn.ixs, rn.rows = make([]*Relation, n), make([]*index, n), make([]int32, n)
	}
	rn.rels, rn.ixs, rn.rows = rn.rels[:n], rn.ixs[:n], rn.rows[:n]
	for li := range rn.body {
		rn.rels[li], rn.ixs[li] = rn.preds[rn.body[li].id], nil
	}
	return rn.join(r, 0, slots, rn.trail[:0])
}

// index returns the index position li of the running pass probes,
// resolving it on the position's first probe: the planned index on a
// frozen pass, ensureIndex's (built now if need be) otherwise.
func (rn *runner) index(li int) *index {
	if ix := rn.ixs[li]; ix != nil {
		return ix
	}
	spec, rel := &rn.body[li], rn.rels[li]
	var ix *index
	if rn.frozen {
		ix = rel.plannedIndex(spec.boundCols)
	} else {
		ix = rel.ensureIndex(spec.boundCols)
	}
	rn.ixs[li] = ix
	return ix
}

func (rn *runner) join(r *compiledRule, li int, slots []Val, trail []int) error {
	if li == len(rn.body) {
		return rn.emitHead(r, slots)
	}
	spec := &rn.body[li]
	rel := rn.rels[li]
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	src := li
	if rn.order != nil {
		src = rn.order[li]
	}
	limit := rn.limits[src]
	shardHere := rn.shardMod > 1 && li == rn.shardLit

	tryPos := func(pos int32) error {
		if t := rn.cur; t != nil {
			t.JoinProbes++
		}
		if rnd := rel.Round(pos); rnd < limit.lo || rnd > limit.hi {
			return nil
		}
		tuple := rel.Tuple(pos)
		mark := len(trail)
		ok := true
		for _, col := range spec.freeCols {
			if !matchPattern(spec.args[col], tuple[col], slots, &trail, rn.consts, rn.db.Store) {
				ok = false
				break
			}
		}
		if ok {
			if t := rn.cur; t != nil {
				t.TuplesMatched++
			}
			if rn.prov != nil {
				rn.children[src] = rn.prov.factID(spec.pred, tuple)
			}
			if err := rn.join(r, li+1, slots, trail); err != nil {
				return err
			}
		}
		trail = undoTrail(slots, trail, mark)
		return nil
	}

	if len(spec.boundCols) > 0 {
		// The probe key lives in the runner's scratch: it is only read
		// until the probe below returns, so deeper recursion levels can
		// reuse the same buffer.
		key := rn.key[:0]
		for _, col := range spec.boundCols {
			key = append(key, evalPattern(spec.args[col], slots, rn.consts, rn.db.Store))
		}
		rn.key = key
		faultinject.Hit(faultinject.IndexProbe)
		var positions []int32
		if spec.fullKey {
			positions = rel.probeFull(key, rn.rows[li:li+1])
		} else {
			positions = rn.index(li).probe(rel, key)
		}
		if limit.lo > 0 {
			positions = rel.fromWindow(positions, limit.lo)
		}
		if shardHere {
			lo, hi := shardRange(len(positions), rn.shardRem, rn.shardMod)
			positions = positions[lo:hi]
		}
		for _, pos := range positions {
			if err := tryPos(pos); err != nil {
				return err
			}
		}
		return nil
	}
	start := rel.windowStart(limit.lo)
	if shardHere {
		// Parallel rounds freeze relations, so the length is fixed and the
		// shard can slice the window up front.
		lo, hi := shardRange(rel.Len()-int(start), rn.shardRem, rn.shardMod)
		for pos := start + lo; pos < start+hi; pos++ {
			if err := tryPos(pos); err != nil {
				return err
			}
		}
		return nil
	}
	// Re-read Len every iteration: sequential rounds insert while scanning,
	// and seeing those tuples in the same pass (the round-0 cascade) is part
	// of the sequential evaluator's convergence behavior.
	for pos := start; pos < int32(rel.Len()); pos++ {
		if err := tryPos(pos); err != nil {
			return err
		}
	}
	return nil
}

// shardRange splits n candidate positions into shardMod contiguous ranges
// and returns shard shardRem's half-open [lo, hi). Contiguous slicing (not
// a modulo filter) keeps each shard's enumeration proportional to its own
// share, so the total scan work across shards equals one unsharded pass.
func shardRange(n int, shardRem, shardMod int32) (lo, hi int32) {
	lo = int32(int64(n) * int64(shardRem) / int64(shardMod))
	hi = int32(int64(n) * int64(shardRem+1) / int64(shardMod))
	return lo, hi
}

// emitHead materializes the head tuple into the runner's scratch and hands
// it to the sink; sinks must copy what they keep (InsertRound copies into
// the arena, the parallel sink copies into its buffer arena) because the
// scratch is overwritten by the next emission.
func (rn *runner) emitHead(r *compiledRule, slots []Val) error {
	tuple := rn.head[:0]
	for _, p := range r.headArgs {
		tuple = append(tuple, evalPattern(p, slots, rn.consts, rn.db.Store))
	}
	rn.head = tuple
	return rn.sink(r, tuple, rn.children)
}

// ctxCheckMask throttles in-round context checks: one contextErr call per
// 4096 inferences keeps the per-inference cost at a single branch while
// still bounding how long a canceled evaluation can keep running inside one
// round (the sequential round-0 cascade can make a single round arbitrarily
// long, so round-boundary checks alone are not enough).
const ctxCheckMask = 4096 - 1

// emit is the sequential sink: insert immediately, bump counters, record
// provenance, and enforce the fact and context budgets.
func (ev *evaluator) emit(r *compiledRule, tuple []Val, children []FactID) error {
	ev.stats.Inferences++
	if ev.ctx != nil && ev.stats.Inferences&ctxCheckMask == 0 {
		if err := contextErr(ev.ctx); err != nil {
			return err
		}
	}
	if !ev.head.InsertRound(tuple, ev.curRound+1) {
		if t := ev.rn.cur; t != nil {
			t.Duplicates++
		}
		return nil
	}
	if t := ev.rn.cur; t != nil {
		t.TuplesDerived++
	}
	ev.headNew++
	ev.stats.Derived++
	if ev.prov != nil {
		ev.prov.record(r, tuple, children)
	}
	if ev.opts.MaxFacts > 0 && ev.stats.Derived > ev.opts.MaxFacts {
		return fmt.Errorf("%w: %d derived facts", ErrBudgetExceeded, ev.stats.Derived)
	}
	return nil
}

// Answers returns the tuples of query's predicate that match the query atom
// (constants and repeated variables filter; distinct variables project). The
// result preserves relation insertion order.
func Answers(db *DB, query ast.Atom) ([][]Val, error) {
	var out [][]Val
	err := eachAnswer(db, query, func(tuple []Val) { out = append(out, tuple) })
	return out, err
}

// AnswerStrings renders the tuples Answers returns, in the same order, each
// projected on cols as (v1,...,vk). Every rendering is a substring of one
// string, so an answer set costs one allocation for its text however many
// answers it holds.
func AnswerStrings(db *DB, query ast.Atom, cols []int) ([]string, error) {
	var arena strings.Builder
	var ends []int
	var proj []Val
	var buf []byte
	err := eachAnswer(db, query, func(tuple []Val) {
		proj = proj[:0]
		for _, c := range cols {
			proj = append(proj, tuple[c])
		}
		buf = db.Store.appendTuple(buf[:0], proj)
		arena.Write(buf)
		ends = append(ends, arena.Len())
	})
	if err != nil {
		return nil, err
	}
	text := arena.String()
	out := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		out[i], start = text[start:end], end
	}
	return out, nil
}

// AnswerSet renders the answers to query as a set of strings, one per
// matching tuple, each the whole tuple as (v1,...,vn); convenient for
// equivalence tests across strategies.
func AnswerSet(db *DB, query ast.Atom) (map[string]bool, error) {
	cols := make([]int, len(query.Args))
	for i := range cols {
		cols[i] = i
	}
	answers, err := AnswerStrings(db, query, cols)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(answers))
	for _, a := range answers {
		out[a] = true
	}
	return out, nil
}

// eachAnswer calls yield with every live tuple of query's predicate that
// matches the query atom, in insertion order. The tuple aliases the
// relation's arena.
func eachAnswer(db *DB, query ast.Atom, yield func(tuple []Val)) error {
	rel := db.Lookup(query.Pred)
	if rel == nil {
		return nil
	}
	if rel.Arity() != len(query.Args) {
		return fmt.Errorf("query %s has arity %d but relation has arity %d",
			query.Pred, len(query.Args), rel.Arity())
	}
	match := answerMatcher(db.Store, query.Args)
	for pos := int32(0); pos < int32(rel.Len()); pos++ {
		if rel.Round(pos) < 0 {
			continue // dead row (deleted under incremental maintenance)
		}
		if tuple := rel.Tuple(pos); match == nil || match(tuple) {
			yield(tuple)
		}
	}
	return nil
}

// answerMatcher compiles a query's arguments into a row test. It returns nil
// when every argument is a distinct variable — every rewritten plan's answer
// atom — since every row then matches.
func answerMatcher(store *Store, args []ast.Term) func(tuple []Val) bool {
	if distinctVars(args) {
		return nil
	}
	table := &constTable{index: map[string]Val{}}
	c := &compiler{consts: table, slots: map[string]int{}}
	pats := make([]pattern, len(args))
	for i, t := range args {
		pats[i] = c.compileTerm(t)
	}
	consts := internConsts(table.names, store, nil)
	slots := make([]Val, c.n)
	var trail []int
	return func(tuple []Val) bool {
		for i := range slots {
			slots[i] = NoVal
		}
		trail = trail[:0]
		for i, p := range pats {
			if !matchPattern(p, tuple[i], slots, &trail, consts, store) {
				return false
			}
		}
		return true
	}
}

func distinctVars(args []ast.Term) bool {
	for i, t := range args {
		if !t.IsVar() {
			return false
		}
		for _, u := range args[:i] {
			if u.Functor == t.Functor {
				return false
			}
		}
	}
	return true
}

// LoadFacts interns and inserts ground atoms into db — the loader for
// callers that own their DB (the CLI, the experiments, tests; a server
// aliases a base image through Version.EvalDB instead). Like Eval it runs
// behind a recover barrier, so a panic during insertion (e.g. arena
// growth) fails that one load as a typed ErrInternal, not the process.
func LoadFacts(db *DB, facts []ast.Atom) (err error) {
	defer recoverTo("load", &err)
	for _, f := range facts {
		tuple := make([]Val, len(f.Args))
		for i, t := range f.Args {
			v, err := db.Store.FromAST(t)
			if err != nil {
				return fmt.Errorf("fact %s: %w", f, err)
			}
			tuple[i] = v
		}
		if _, err := db.Insert(f.Pred, tuple...); err != nil {
			return err
		}
	}
	return nil
}
