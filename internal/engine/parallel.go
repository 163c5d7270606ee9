package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/depgraph"
	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
	"factorlog/internal/trace"
)

// This file implements parallel stratified evaluation (Options.Workers > 1):
//
//  1. The program's predicate dependency graph is condensed into SCCs and
//     scheduled as a topologically ordered list of strata (internal/depgraph).
//     Non-recursive strata are evaluated in a single pass; recursive strata
//     run a local semi-naive fixpoint. Predicates from earlier strata are
//     complete by the time a stratum starts, so their occurrences are
//     unrestricted (no delta bookkeeping) — only same-stratum occurrences
//     participate in the delta discipline.
//
//  2. Within a round, rule x delta-occurrence passes are split into shards
//     of the first body literal's positions and fanned out over a worker
//     pool. Relations are frozen during a round: workers probe prebuilt
//     indexes read-only and derive into private buffers, which the
//     coordinator merges (deduplicating through Relation.InsertRound) at
//     the round barrier. The hash-consed Store handles any concurrent
//     interning of compound head terms.
//
//  3. Every index a stratum's rules declare (compiledRule.indexNeeds) is
//     built before the stratum's first round, so in-round probes never
//     mutate shared state.
//
// The final answer set and Stats.Derived are identical to the sequential
// evaluator's — both compute the same least fixpoint — but Iterations
// counts per-stratum rounds and relation insertion order depends on worker
// interleaving.

// workUnit is one schedulable piece of a round: one evaluation pass of one
// rule (with its delta occurrence) restricted to one shard of the first
// body literal's positions.
type workUnit struct {
	rule     *compiledRule
	occs     []int // stratum-local delta positions (subset of idbOccs)
	deltaOcc int   // -1 for seed passes
	shardRem int32
	shardMod int32 // 1 = unsharded
}

// bufFact is one derivation buffered by a worker until the round barrier:
// the rule that fired and the offset of the head tuple in the worker's
// buffer arena (its length is the rule's head arity).
type bufFact struct {
	rule *compiledRule
	off  int32
}

// errEvalStopped aborts a worker's in-progress join when the evaluation's
// context is canceled; it never escapes the engine (the coordinator reports
// the context's typed error instead).
var errEvalStopped = errors.New("engine: evaluation stopped")

// factSet is the worker-local same-round dedup: an open-addressed table
// over hashPredTuple hashes whose slots name buffered facts (index+1; 0 =
// empty, so a round reset is one memclr). Collisions compare predicate and
// tuple against the worker's buffer arena — no string keys.
type factSet struct {
	hashes []uint64
	ids    []int32
	n      int
}

func (s *factSet) contains(pw *parWorker, h uint64, pred string, tuple []Val) bool {
	if len(s.ids) == 0 {
		return false
	}
	mask := uint64(len(s.ids) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := s.ids[i]
		if id == 0 {
			return false
		}
		if s.hashes[i] == h && pw.factEquals(pw.facts[id-1], pred, tuple) {
			return true
		}
	}
}

// add records fact index id-1 as seen; the caller ensured it is absent.
func (s *factSet) add(h uint64, id int32) {
	if (s.n+1)*4 > len(s.ids)*3 {
		s.grow()
	}
	mask := uint64(len(s.ids) - 1)
	i := h & mask
	for s.ids[i] != 0 {
		i = (i + 1) & mask
	}
	s.hashes[i], s.ids[i] = h, id
	s.n++
}

func (s *factSet) grow() {
	size := 2 * len(s.ids)
	if size == 0 {
		size = 64
	}
	oldHashes, oldIDs := s.hashes, s.ids
	s.hashes = make([]uint64, size)
	s.ids = make([]int32, size)
	mask := uint64(size - 1)
	for j, id := range oldIDs {
		if id == 0 {
			continue
		}
		i := oldHashes[j] & mask
		for s.ids[i] != 0 {
			i = (i + 1) & mask
		}
		s.hashes[i], s.ids[i] = oldHashes[j], id
	}
}

// reset clears the set in one memclr, keeping its capacity for the next
// round (stale hashes are never read behind an empty slot).
func (s *factSet) reset() {
	clear(s.ids)
	s.n = 0
}

// parWorker is one worker's private state, reused across rounds and — via
// parWorkerPool — across evaluations.
type parWorker struct {
	rn         runner
	facts      []bufFact
	arena      []Val // buffered head tuples, row-major per facts entry
	dedup      factSet
	inferences int
	// rules and ruleBusy are the round's per-rule join counters and time
	// spent in the rule's units, folded into Stats.Rules at each barrier;
	// nil unless traced.
	rules    []obsv.RuleStats
	ruleBusy []time.Duration
	// units, tuples and busy feed the worker span: work units run, head
	// tuples buffered (before the barrier's dedup), and time inside units.
	units, tuples int
	busy          time.Duration
	// stop, when non-nil, is the evaluation's cancellation flag; the sink
	// polls it so a worker abandons its current work unit mid-join instead
	// of running the unit to completion after the context is gone.
	stop *atomic.Bool
}

// parWorkerPool recycles worker state (buffer arenas, dedup tables, the
// runner's slot/key/head scratch) across evaluations, so a long-lived
// server's parallel queries stop paying warm-up allocations. Buffers are
// recycled within an evaluation at every barrier merge and returned to the
// pool when the evaluation ends.
var parWorkerPool = sync.Pool{New: func() any { return new(parWorker) }}

// tuple returns the buffered head tuple of bf as a view into the arena.
func (pw *parWorker) tuple(bf bufFact) []Val {
	return pw.arena[bf.off : int(bf.off)+len(bf.rule.headArgs)]
}

// factEquals reports whether bf is the fact (pred, tuple).
func (pw *parWorker) factEquals(bf bufFact, pred string, tuple []Val) bool {
	if bf.rule.headPred != pred || len(bf.rule.headArgs) != len(tuple) {
		return false
	}
	for i, v := range pw.tuple(bf) {
		if v != tuple[i] {
			return false
		}
	}
	return true
}

// release returns the worker to the pool, dropping every reference into
// the evaluation (db, rules, sinks) while keeping the scratch capacity.
func (pw *parWorker) release() {
	pw.rn = runner{slots: pw.rn.slots[:0], key: pw.rn.key[:0], head: pw.rn.head[:0], trail: pw.rn.trail[:0], limits: pw.rn.limits[:0]}
	for i := range pw.facts {
		pw.facts[i] = bufFact{}
	}
	pw.facts = pw.facts[:0]
	pw.arena = pw.arena[:0]
	pw.dedup.reset()
	pw.inferences = 0
	pw.rules, pw.ruleBusy = nil, nil
	pw.units, pw.tuples, pw.busy = 0, 0, 0
	pw.stop = nil
	parWorkerPool.Put(pw)
}

// sink buffers the derivation; insertion and budget checks happen at the
// barrier. Two duplicate classes are dropped here instead of being buffered:
// tuples already in the (frozen) relation before this round, and tuples this
// worker already buffered this round. Only cross-worker same-round
// duplicates survive to the merge, keeping the serial barrier work
// proportional to the distinct new tuples, not to the inference count. The
// relation membership check and the local dedup are both pure hash-table
// reads/updates against the arenas — nothing is encoded, nothing allocates
// beyond amortized buffer growth.
func (pw *parWorker) sink(r *compiledRule, tuple []Val, _ []FactID) error {
	pw.inferences++
	if pw.stop != nil && pw.inferences&ctxCheckMask == 0 && pw.stop.Load() {
		return errEvalStopped
	}
	dup := pw.rn.db.Lookup(r.headPred).Contains(tuple)
	if !dup {
		// Key the local set by predicate + tuple: tuples of different
		// predicates may hash-collide.
		h := hashPredTuple(r.headPred, tuple)
		if pw.dedup.contains(pw, h, r.headPred, tuple) {
			dup = true
		} else {
			off := int32(len(pw.arena))
			pw.arena = append(pw.arena, tuple...)
			pw.facts = append(pw.facts, bufFact{rule: r, off: off})
			pw.dedup.add(h, int32(len(pw.facts)))
		}
	}
	if dup {
		if pw.rules != nil {
			pw.rules[r.idx].Duplicates++
		}
		return nil
	}
	return nil
}

// parEvaluator coordinates strata, rounds, and the worker pool.
type parEvaluator struct {
	db        *DB
	rules     []*compiledRule
	opts      Options
	stats     Stats
	curRound  int32
	newCounts map[string]int
	workers   []*parWorker
	ctx       context.Context // nil when the evaluation is unbounded
	stop      atomic.Bool     // set by the context watcher; polled by workers
	// panicked holds the first worker panic of the evaluation; the unit
	// claim loop polls it so surviving workers stop scheduling new units
	// once a sibling has died, and runRound reports it after the barrier.
	panicked atomic.Pointer[PanicError]

	// roundDerived counts the current round's new facts per rule, for the
	// barrier's fold into Stats.Rules; nil unless Options.Trace.
	roundDerived []int

	// span is Options.Span and stratumSpan the currently open stratum span;
	// both nil-receiver no-ops when span tracing is off. Only the
	// coordinator touches them — round spans bracket whole rounds (workers
	// included), rule spans are attached at the barrier, and worker busy
	// time once at the end, so no worker goroutine ever creates spans
	// mid-join.
	span        *trace.Span
	stratumSpan *trace.Span

	// stream counts the one-pass strata when Options select the stratified
	// schedule (the parallel evaluator's own); nil otherwise.
	stream *obsv.StreamStats
}

// evalParallel is the Workers > 1 entry point; the caller has already
// validated opts and compiled the rules.
func evalParallel(p *ast.Program, db *DB, rules []*compiledRule, opts Options) (*Result, error) {
	ev := &parEvaluator{
		db:        db,
		rules:     rules,
		opts:      opts,
		newCounts: map[string]int{},
		ctx:       opts.Context,
		span:      opts.Span,
	}
	if err := contextErr(ev.ctx); err != nil {
		return nil, err
	}
	if ev.ctx != nil && ev.ctx.Done() != nil {
		// Translate ctx.Done into an atomic flag the workers can poll per
		// batch of inferences; a channel select per tuple would be far too
		// expensive. The watcher exits with the evaluation.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ev.ctx.Done():
				ev.stop.Store(true)
			case <-watchDone:
			}
		}()
	}

	// Materialize head and body relations up front, exactly like the
	// sequential path.
	if err := prepareRelations(db, rules); err != nil {
		return nil, err
	}

	ev.workers = make([]*parWorker, opts.Workers)
	for w := range ev.workers {
		pw := parWorkerPool.Get().(*parWorker)
		if ev.ctx != nil {
			pw.stop = &ev.stop
		}
		pw.rn.db = db
		pw.rn.frozen = true
		pw.rn.sink = pw.sink
		ev.workers[w] = pw
	}
	defer func() {
		for _, pw := range ev.workers {
			pw.release()
		}
	}()
	if opts.Trace {
		ev.stats.Rules = newRuleStats(rules)
		ev.roundDerived = make([]int, len(rules))
		for _, pw := range ev.workers {
			pw.rules = make([]obsv.RuleStats, len(rules))
			pw.ruleBusy = make([]time.Duration, len(rules))
		}
	}

	sched := depgraph.Analyze(p)
	if opts.stratified() {
		ev.stream = &obsv.StreamStats{Strata: len(sched.Strata)}
	}
	for si := range sched.Strata {
		if err := ev.evalStratum(si, &sched.Strata[si]); err != nil {
			return nil, err
		}
	}

	// Attach each worker's cumulative busy time as a pre-measured span;
	// per-round worker spans would multiply the span count for no extra
	// signal.
	if ev.span != nil {
		for w, pw := range ev.workers {
			ev.span.AddFinished("worker", pw.busy).
				SetWorker(w).SetTuples(0, int64(pw.tuples)).
				SetNote(fmt.Sprintf("%d units", pw.units))
		}
	}
	return &Result{DB: db, Stats: ev.stats, Stream: ev.stream}, nil
}

// evalStratum runs one stratum to completion: a seed pass over all its
// rules, then (if recursive) semi-naive rounds until no new facts appear.
func (ev *parEvaluator) evalStratum(si int, st *depgraph.Stratum) error {
	ev.stratumSpan = ev.span.Child("stratum").SetStratum(si)
	if ev.stratumSpan != nil {
		ev.stratumSpan.SetNote(strings.Join(st.Preds, ","))
		// End on every exit so error paths (budget, cancellation, panic)
		// still leave a measured span behind for the trace.
		defer func() {
			ev.stratumSpan.End()
			ev.stratumSpan = nil
		}()
	}
	preds := st.PredSet()
	srules := make([]*compiledRule, len(st.Rules))
	recOccs := make([][]int, len(st.Rules))
	for i, ri := range st.Rules {
		r := ev.rules[ri]
		srules[i] = r
		for _, occ := range r.idbOccs {
			if preds[r.body[occ].pred] {
				recOccs[i] = append(recOccs[i], occ)
			}
		}
	}

	// Compile-time index planning: build this stratum's indexes before its
	// first round, so every in-round probe is read-only.
	for _, r := range srules {
		for _, need := range r.indexNeeds {
			ev.db.Lookup(need.pred).ensureIndex(need.cols)
		}
	}

	factsBefore, inferencesBefore := ev.stats.Derived, ev.stats.Inferences

	// Seed pass: every rule once, no delta restriction. Facts land with
	// stamp curRound+1 so they form the first round's delta.
	var units []workUnit
	for i, r := range srules {
		units = ev.addUnits(units, r, recOccs[i], -1)
	}
	if err := ev.runRound(units); err != nil {
		return err
	}
	ev.stats.Iterations++

	if st.Recursive {
		for total(ev.newCounts) > 0 {
			if err := contextErr(ev.ctx); err != nil {
				return err
			}
			if ev.opts.MaxIterations > 0 && ev.stats.Iterations >= ev.opts.MaxIterations {
				return fmt.Errorf("%w: %d iterations", ErrBudgetExceeded, ev.stats.Iterations)
			}
			deltaCounts := ev.newCounts
			ev.newCounts = map[string]int{}
			ev.curRound++
			units = units[:0]
			for i, r := range srules {
				for _, occ := range recOccs[i] {
					if deltaCounts[r.body[occ].pred] == 0 {
						continue
					}
					units = ev.addUnits(units, r, recOccs[i], occ)
				}
			}
			if err := ev.runRound(units); err != nil {
				return err
			}
			ev.stats.Iterations++
		}
	} else {
		ev.newCounts = map[string]int{}
		if ev.stream != nil {
			addOnePass(ev.stream, srules, ev.stats.Inferences-inferencesBefore, ev.stats.Derived-factsBefore)
		}
	}
	// Leave curRound past every stamp this stratum used, so the next
	// stratum's delta windows cannot overlap it.
	ev.curRound++
	ev.stratumSpan.AddTuplesOut(int64(ev.stats.Derived - factsBefore))
	return nil
}

// addUnits appends the work units of one rule evaluation pass, sharding the
// first body literal across the worker count when the rule has a body.
func (ev *parEvaluator) addUnits(units []workUnit, r *compiledRule, occs []int, deltaOcc int) []workUnit {
	shards := int32(len(ev.workers))
	if len(r.body) == 0 || shards < 2 {
		return append(units, workUnit{rule: r, occs: occs, deltaOcc: deltaOcc, shardMod: 1})
	}
	for k := int32(0); k < shards; k++ {
		units = append(units, workUnit{rule: r, occs: occs, deltaOcc: deltaOcc, shardMod: shards, shardRem: k})
	}
	return units
}

// runRound fans units out to the workers, waits for the barrier, and merges
// the private buffers into the database with stamp curRound+1.
func (ev *parEvaluator) runRound(units []workUnit) error {
	roundSpan := ev.stratumSpan.Child("round").SetRound(int(ev.curRound))
	defer roundSpan.End()
	nw := len(ev.workers)
	if nw > len(units) {
		nw = len(units)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		pw := ev.workers[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker recover barrier: a panic in join/probe/buffer code
			// kills this worker's unit loop, records the first panic for
			// the coordinator, and lets the barrier complete — the process
			// and the other evaluations it hosts survive.
			defer func() {
				if r := recover(); r != nil {
					ev.panicked.CompareAndSwap(nil, newPanicError("worker", r))
				}
			}()
			faultinject.Hit(faultinject.WorkerStart)
			busyStart := time.Now()
			for {
				if pw.stop != nil && pw.stop.Load() {
					break
				}
				if ev.panicked.Load() != nil {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					break
				}
				u := units[i]
				pw.units++
				pw.rn.shardLit = 0
				pw.rn.shardMod = u.shardMod
				pw.rn.shardRem = u.shardRem
				if pw.rules != nil {
					pw.rn.cur = &pw.rules[u.rule.idx]
					if u.shardRem == 0 {
						// One logical firing per (rule, occurrence) pass,
						// regardless of how many shards split it.
						pw.rn.cur.Firings++
					}
				}
				pw.rn.setLimits(u.rule, u.occs, u.deltaOcc, ev.curRound, unrestricted)
				// Parallel passes join in source order: shards split the
				// leading literal, and only the source order's indexes are
				// built before the relations freeze. Whether this path stays
				// is open (ROADMAP item 9(a)), so it takes no delta-led order.
				// The buffering sink fails only with errEvalStopped (budget
				// enforcement happens at the merge below); on cancellation
				// the worker abandons its remaining units.
				var unitStart time.Time
				if pw.ruleBusy != nil {
					unitStart = time.Now()
				}
				err := pw.rn.runRule(u.rule, nil)
				if pw.ruleBusy != nil {
					pw.ruleBusy[u.rule.idx] += time.Since(unitStart)
				}
				if err != nil {
					break
				}
			}
			pw.busy += time.Since(busyStart)
		}()
	}
	wg.Wait()

	// Panicked or canceled rounds produce partial buffers; discard them and
	// report the typed error instead of merging. The worker panic takes
	// precedence: it is what the caller must degrade or fail on.
	if pe := ev.panicked.Load(); pe != nil {
		ev.discardBuffers()
		return pe
	}
	if err := contextErr(ev.ctx); err != nil {
		ev.discardBuffers()
		return err
	}

	// Barrier: merge private buffers, deduplicating through the relation's
	// hash set. Single-threaded, so inserts need no locking.
	stamp := ev.curRound + 1
	added := 0
	for _, pw := range ev.workers {
		ev.stats.Inferences += pw.inferences
		pw.inferences = 0
		pw.tuples += len(pw.facts)
		for _, bf := range pw.facts {
			if !ev.db.Lookup(bf.rule.headPred).InsertRound(pw.tuple(bf), stamp) {
				if ev.stats.Rules != nil {
					ev.stats.Rules[bf.rule.idx].Duplicates++
				}
				continue
			}
			if ev.roundDerived != nil {
				ev.roundDerived[bf.rule.idx]++
			}
			ev.newCounts[bf.rule.headPred]++
			ev.stats.Derived++
			added++
		}
		pw.facts = pw.facts[:0]
		pw.arena = pw.arena[:0]
		pw.dedup.reset()
	}
	roundSpan.AddTuplesOut(int64(added))
	if ev.stats.Rules != nil {
		ev.foldRules(roundSpan)
	}
	if ev.opts.MaxFacts > 0 && ev.stats.Derived > ev.opts.MaxFacts {
		return fmt.Errorf("%w: %d derived facts", ErrBudgetExceeded, ev.stats.Derived)
	}
	// The merge is the parallel evaluator's round boundary: everything the
	// round derived is now in the shared relations, so this is where the
	// storage budget is enforceable.
	return memBudgetErr(ev.db, ev.opts.MaxBytes)
}

// foldRules moves the round's per-rule counters — the workers' join counts
// and the barrier's new facts — into Stats.Rules, and gives each rule the
// round ran a rule span with its share: probes in, new facts out, and the
// workers' summed time inside the rule's units as its wall.
func (ev *parEvaluator) foldRules(roundSpan *trace.Span) {
	for i := range ev.stats.Rules {
		var round obsv.RuleStats
		var busy time.Duration
		for _, pw := range ev.workers {
			round.Add(pw.rules[i])
			busy += pw.ruleBusy[i]
			pw.rules[i], pw.ruleBusy[i] = obsv.RuleStats{}, 0
		}
		round.TuplesDerived, ev.roundDerived[i] = ev.roundDerived[i], 0
		if round.Firings == 0 {
			continue
		}
		ev.stats.Rules[i].Add(round)
		roundSpan.AddFinished("rule", busy).SetRule(i).
			SetTuples(int64(round.JoinProbes), int64(round.TuplesDerived))
	}
}

// discardBuffers drops every worker's partial round state after a panic or
// cancellation, so nothing half-derived reaches the database.
func (ev *parEvaluator) discardBuffers() {
	for _, pw := range ev.workers {
		pw.facts = pw.facts[:0]
		pw.arena = pw.arena[:0]
		pw.dedup.reset()
		pw.inferences = 0
	}
}
