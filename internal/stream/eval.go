package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/depgraph"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/trace"
)

// Result is the outcome of a streaming evaluation. The DB passed to Eval is
// mutated in place and also referenced here. Stats carries the engine's
// counters with streaming semantics: each non-recursive rule body runs
// exactly once, so Inferences counts streamed emissions plus the fixpoint
// inferences of recursive strata, and Iterations counts one pass per
// streamed stratum plus the fixpoint rounds of recursive ones. Relation
// contents and answer sets are identical to the materializing executor's.
type Result struct {
	DB     *engine.DB
	Stats  engine.Stats
	Stream obsv.StreamStats
	Plan   *Plan
}

// ctxCheckMask throttles in-stream context checks to one poll per 4096
// emitted rows, mirroring the engine's per-inference throttle.
const ctxCheckMask = 4096 - 1

// Eval evaluates program p over db stratum by stratum: non-recursive strata
// run once through composed iterator pipelines, recursive strata delegate
// to engine.Eval's semi-naive fixpoint over the stratum's subprogram
// (inheriting Workers, budgets, tracing, and cancellation). Derived
// relations are identical to engine.Eval's for every valid program; Stats
// cost measures differ (see Result).
//
// Provenance is not supported (the fixpoint evaluator records it; use
// StreamOff) and is rejected with ErrBadOptions, as is a non-SemiNaive
// strategy. Like engine.Eval, the evaluation runs behind a recover barrier:
// a panic (including injected faults) fails this evaluation with a
// *PanicError wrapping ErrInternal, and on any error the DB's contents are
// valid but incomplete — discard them.
func Eval(p *ast.Program, db *engine.DB, opts engine.Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &engine.PanicError{Where: "stream", Value: r, Stack: debug.Stack()}
		}
	}()
	if err := validate(opts); err != nil {
		return nil, err
	}
	if opts.Span != nil {
		opts.Trace = true
	}
	rules, err := engine.CompileProgram(p, db.Store, opts.ReorderJoins)
	if err != nil {
		return nil, err
	}
	// Materialize head and body relations up front, matching the fixpoint
	// evaluator.
	if err := engine.PrepareRelations(db, rules); err != nil {
		return nil, err
	}
	sched := depgraph.Analyze(p)
	plan, err := planCompiled(p, rules, sched)
	if err != nil {
		return nil, err
	}

	ev := &streamEval{
		p:     p,
		db:    db,
		opts:  opts,
		plan:  plan,
		rules: rules,
	}
	ev.ex = &exec{db: db, tables: map[tableKey]*buildTable{}, stream: &ev.result.Stream}
	ev.result.DB = db
	ev.result.Plan = plan
	ev.result.Stream.Strata = len(sched.Strata)
	ev.result.Stream.Streamed = plan.Streamed()
	ev.result.Stream.Pushdowns = countPushdowns(plan)
	if opts.Trace {
		ev.result.Stats.Rules = make([]obsv.RuleStats, len(rules))
		for i, r := range rules {
			ev.result.Stats.Rules[i] = obsv.RuleStats{Index: i, Rule: r.Label()}
		}
	}
	if err := ev.run(); err != nil {
		return nil, err
	}
	return &ev.result, nil
}

// validate rejects options the streaming executor cannot honor, plus the
// same out-of-domain values engine.Eval rejects (a streamed-only program
// never reaches the engine's own validation).
func validate(opts engine.Options) error {
	if opts.Provenance {
		return fmt.Errorf("%w: streaming executor does not record provenance", engine.ErrBadOptions)
	}
	if opts.Strategy != engine.SemiNaive {
		return fmt.Errorf("%w: streaming executor requires the semi-naive strategy", engine.ErrBadOptions)
	}
	if opts.Workers < 0 {
		return fmt.Errorf("%w: Workers = %d (want >= 0)", engine.ErrBadOptions, opts.Workers)
	}
	if opts.MaxIterations < 0 {
		return fmt.Errorf("%w: MaxIterations = %d (want >= 0)", engine.ErrBadOptions, opts.MaxIterations)
	}
	if opts.MaxFacts < 0 {
		return fmt.Errorf("%w: MaxFacts = %d (want >= 0)", engine.ErrBadOptions, opts.MaxFacts)
	}
	if opts.MaxBytes < 0 {
		return fmt.Errorf("%w: MaxBytes = %d (want >= 0)", engine.ErrBadOptions, opts.MaxBytes)
	}
	return nil
}

// streamEval is one evaluation's state: the plan being executed, the
// accumulated result, and the shared transient-table cache.
type streamEval struct {
	p     *ast.Program
	db    *engine.DB
	opts  engine.Options
	plan  *Plan
	rules []*engine.CompiledRule
	ex    *exec

	result Result
}

func (ev *streamEval) run() error {
	for si := range ev.plan.Strata {
		if err := ctxErr(ev.opts.Context); err != nil {
			return err
		}
		sp := &ev.plan.Strata[si]
		start := time.Now()
		span := ev.opts.Span.Child("stratum").SetStratum(si)
		if span != nil {
			span.SetNote(executorNote(sp) + ": " + strings.Join(sp.Preds, ","))
		}
		var newFacts int
		var rounds int
		var err error
		if sp.Streamed {
			newFacts, err = ev.runStreamed(sp, span)
			rounds = 1
		} else {
			newFacts, rounds, err = ev.runFixpoint(sp, span)
		}
		span.End()
		if ev.opts.Trace {
			ev.result.Stats.Strata = append(ev.result.Stats.Strata, obsv.StratumStats{
				Index:     si,
				Preds:     sp.Preds,
				Recursive: sp.Recursive,
				Rules:     len(sp.ruleIdxs),
				Rounds:    rounds,
				NewFacts:  newFacts,
				Wall:      time.Since(start),
			})
		}
		if err != nil {
			return err
		}
		if err := memBudgetErr(ev.db, ev.opts.MaxBytes); err != nil {
			return err
		}
	}
	return nil
}

func executorNote(sp *StratumPlan) string {
	if sp.Streamed {
		return "stream"
	}
	return "fixpoint"
}

// runStreamed executes one non-recursive stratum: each rule's pipeline runs
// once, draining into the head relation as round-0 base facts. It returns
// the number of new facts derived.
func (ev *streamEval) runStreamed(sp *StratumPlan, span *trace.Span) (newFacts int, err error) {
	stats := &ev.result.Stats
	for _, rp := range sp.Rules {
		rel := ev.db.Lookup(rp.compiled.HeadPred())
		mat := rp.Root
		proj := buildPipeline(rp, ev.db, ev.ex)
		derived, dups := 0, 0
		for proj.Next() {
			stats.Inferences++
			ev.result.Stream.RowsEmitted++
			mat.RowsIn++
			if ev.opts.Context != nil && stats.Inferences&ctxCheckMask == 0 {
				if err := ctxErr(ev.opts.Context); err != nil {
					return newFacts, err
				}
			}
			if rel.InsertRound(proj.Row(), 0) {
				mat.Rows++
				derived++
				stats.Derived++
				if ev.opts.MaxFacts > 0 && stats.Derived > ev.opts.MaxFacts {
					return newFacts + derived, fmt.Errorf("%w: %d derived facts", engine.ErrBudgetExceeded, stats.Derived)
				}
			} else {
				dups++
				ev.result.Stream.Duplicates++
			}
		}
		newFacts += derived
		nodes := chainNodes(rp.Root)
		probes := int64(0)
		for _, n := range nodes[:len(nodes)-2] { // sources and joins only
			probes += n.RowsIn
		}
		if ev.opts.Trace {
			rs := &stats.Rules[rp.RuleIndex]
			rs.Firings++
			rs.JoinProbes += int(probes)
			rs.TuplesMatched += int(nodes[len(nodes)-2].RowsIn) // rows reaching project
			rs.TuplesDerived += derived
			rs.Duplicates += dups
			for _, n := range nodes {
				ev.result.Stream.Ops = append(ev.result.Stream.Ops, obsv.StreamOpStats{
					Stratum: sp.Index,
					Rule:    rp.RuleIndex,
					Op:      n.Op,
					Pred:    n.Pred,
					RowsIn:  n.RowsIn,
					Rows:    n.Rows,
					Pushed:  n.Pushed,
				})
			}
		}
		if span != nil {
			span.Child("rule").SetRule(rp.RuleIndex).
				SetTuples(probes, int64(derived)).End()
		}
	}
	// A streamed stratum is one pass, whatever its rule count: the
	// fixpoint's Iterations measure becomes "strata passes" here.
	stats.Iterations++
	return newFacts, nil
}

// runFixpoint delegates one recursive stratum to the engine's semi-naive
// evaluator over the stratum's subprogram. Topological stratum order
// guarantees every body relation outside the stratum is already complete,
// and the engine's round-0 pass is unrestricted, so leftover round stamps
// from earlier strata are harmless. Budgets are passed as the remaining
// slack so the whole evaluation honors the caller's bounds.
func (ev *streamEval) runFixpoint(sp *StratumPlan, span *trace.Span) (newFacts, rounds int, err error) {
	stats := &ev.result.Stats
	sub := &ast.Program{Rules: make([]ast.Rule, len(sp.ruleIdxs))}
	for i, ri := range sp.ruleIdxs {
		sub.Rules[i] = ev.p.Rules[ri]
	}
	subOpts := engine.Options{
		Strategy:     engine.SemiNaive,
		Context:      ev.opts.Context,
		Workers:      ev.opts.Workers,
		MaxBytes:     ev.opts.MaxBytes,
		ReorderJoins: ev.opts.ReorderJoins,
		Trace:        ev.opts.Trace,
		Span:         span,
	}
	if ev.opts.MaxIterations > 0 {
		remaining := ev.opts.MaxIterations - stats.Iterations
		if remaining <= 0 {
			return 0, 0, fmt.Errorf("%w: %d iterations", engine.ErrBudgetExceeded, stats.Iterations)
		}
		subOpts.MaxIterations = remaining
	}
	if ev.opts.MaxFacts > 0 {
		remaining := ev.opts.MaxFacts - stats.Derived
		if remaining <= 0 {
			return 0, 0, fmt.Errorf("%w: %d derived facts", engine.ErrBudgetExceeded, stats.Derived)
		}
		subOpts.MaxFacts = remaining
	}
	res, err := engine.Eval(sub, ev.db, subOpts)
	if res != nil {
		roundBase := stats.Iterations
		stats.Inferences += res.Stats.Inferences
		stats.Derived += res.Stats.Derived
		stats.Iterations += res.Stats.Iterations
		stats.Degraded = stats.Degraded || res.Stats.Degraded
		if ev.opts.Trace {
			// Subprogram rule i is global rule sp.ruleIdxs[i]; fold its
			// counters into the global record (labels are already set).
			for i := range res.Stats.Rules {
				sub := &res.Stats.Rules[i]
				rs := &stats.Rules[sp.ruleIdxs[i]]
				rs.Firings += sub.Firings
				rs.JoinProbes += sub.JoinProbes
				rs.TuplesMatched += sub.TuplesMatched
				rs.TuplesDerived += sub.TuplesDerived
				rs.Duplicates += sub.Duplicates
			}
			for _, rd := range res.Stats.Rounds {
				rd.Round += roundBase
				stats.Rounds = append(stats.Rounds, rd)
			}
		}
		newFacts = res.Stats.Derived
		rounds = res.Stats.Iterations
	}
	return newFacts, rounds, err
}

// chainNodes flattens a rule plan's linear operator chain source-first:
// [scan|const, join..., project, materialize].
func chainNodes(root *OpNode) []*OpNode {
	var out []*OpNode
	for n := root; n != nil; {
		out = append(out, n)
		if len(n.Children) == 0 {
			break
		}
		n = n.Children[0]
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ctxErr maps ctx's terminal state to the engine's typed errors, mirroring
// the engine's own cancellation poll.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := context.Cause(ctx)
		if errors.Is(cause, context.DeadlineExceeded) {
			return fmt.Errorf("%w: %v", engine.ErrDeadlineExceeded, cause)
		}
		return fmt.Errorf("%w: %v", engine.ErrCanceled, cause)
	default:
		return nil
	}
}

// memBudgetErr enforces MaxBytes against the database's retained footprint
// at stratum boundaries, the same accounting the engine applies at round
// boundaries. Transient build tables are deliberately excluded: they are
// scratch discarded at evaluation end, not retained storage.
func memBudgetErr(db *engine.DB, maxBytes int64) error {
	if maxBytes <= 0 {
		return nil
	}
	st := db.StorageStats()
	if used := st.ArenaBytes + st.IndexBytes; used > maxBytes {
		return fmt.Errorf("%w: %d bytes in arenas+indexes > MaxBytes %d", engine.ErrMemoryBudget, used, maxBytes)
	}
	return nil
}

// tableKey identifies one transient build table: a relation and the column
// set its keys project.
type tableKey struct {
	pred string
	mask uint32
}

func colMask(cols []int) uint32 {
	var m uint32
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

// exec is the state one evaluation's pipelines share: the transient
// build-table cache (keyed by relation and column set, built once and
// reused by every probe of the run, across rules and strata — a body
// relation is frozen once its defining stratum completes) and the
// aggregate stream counters.
type exec struct {
	db     *engine.DB
	tables map[tableKey]*buildTable
	stream *obsv.StreamStats
}

// table returns the build table for (pred, cols), building it on first use.
func (ex *exec) table(pred string, rel *engine.Relation, cols []int) *buildTable {
	k := tableKey{pred: pred, mask: colMask(cols)}
	if t, ok := ex.tables[k]; ok {
		return t
	}
	t := newBuildTable(rel, cols)
	ex.tables[k] = t
	ex.stream.BuildTables++
	ex.stream.BuildRows += int64(rel.Len())
	return t
}

// buildTable is a transient hash index: the projection of a frozen
// relation's rows onto cols, mapped to postings lists of row positions.
// Unlike the relation's persistent indexes it is pre-sized from the row
// count (never grows: load stays under 3/4 by construction) and it is
// dropped with the evaluation instead of being retained on the relation.
type buildTable struct {
	rel      *engine.Relation
	cols     []int
	hashes   []uint64
	slots    []int32 // postings bucket ids; -1 = empty
	postings [][]int32
	n        int // distinct keys
}

func newBuildTable(rel *engine.Relation, cols []int) *buildTable {
	size := 16
	for size*3 < rel.Len()*4 {
		size <<= 1
	}
	t := &buildTable{
		rel:    rel,
		cols:   cols,
		hashes: make([]uint64, size),
		slots:  make([]int32, size),
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	key := make([]engine.Val, len(cols))
	for row := int32(0); row < int32(rel.Len()); row++ {
		tuple := rel.Tuple(row)
		for i, c := range cols {
			key[i] = tuple[c]
		}
		t.add(engine.HashVals(key), row)
	}
	return t
}

func (t *buildTable) add(h uint64, row int32) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := t.slots[i]
		if b < 0 {
			t.hashes[i] = h
			t.slots[i] = int32(len(t.postings))
			t.postings = append(t.postings, []int32{row})
			t.n++
			return
		}
		if t.hashes[i] == h && t.rowsAgree(t.postings[b][0], row) {
			t.postings[b] = append(t.postings[b], row)
			return
		}
	}
}

// rowsAgree reports whether two rows project equally onto the table's cols.
func (t *buildTable) rowsAgree(a, b int32) bool {
	ta, tb := t.rel.Tuple(a), t.rel.Tuple(b)
	for _, c := range t.cols {
		if ta[c] != tb[c] {
			return false
		}
	}
	return true
}

// probe returns the postings of key (aligned with cols), or nil; a pure
// read, like the persistent index's probe.
func (t *buildTable) probe(key []engine.Val) []int32 {
	if t.n == 0 {
		return nil
	}
	h := engine.HashVals(key)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := t.slots[i]
		if b < 0 {
			return nil
		}
		if t.hashes[i] == h && t.rowMatchesKey(t.postings[b][0], key) {
			return t.postings[b]
		}
	}
}

// rowMatchesKey reports whether the row's projection onto cols equals key.
func (t *buildTable) rowMatchesKey(row int32, key []engine.Val) bool {
	tuple := t.rel.Tuple(row)
	for i, c := range t.cols {
		if tuple[c] != key[i] {
			return false
		}
	}
	return true
}
