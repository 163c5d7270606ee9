package pipeline

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
)

// This file is the serving side of incremental view maintenance: a
// Materializer owns the base image (engine.Base), a log of mutation
// batches, and a bounded registry of engine.Materializations keyed by
// (canonical query, strategy). Mutations publish a new image version and
// advance its epoch; a query served from the registry first refreshes its
// entry to the current epoch — a no-op when already there ("hit"), an
// incremental catch-up when the logged batches cover the gap ("delta"),
// and a from-scratch recompute otherwise ("rebuild"; "build" the first
// time). Each refresh disposition, its wall time, and its O(change)/O(db)
// ratio feed obsv.MutationStats.

// ErrNotMaterializable reports a Serve for a strategy with no materialized
// program (the top-down strategies). Gate with MaterializableStrategy.
var ErrNotMaterializable = errors.New("strategy is not materializable")

// MutationBatch is one effective mutation batch: the asserts and retracts
// that actually changed the base EDB, tagged with the epoch the batch
// produced. The log holds consecutive epochs; noop batches are not logged
// and do not advance the epoch.
type MutationBatch struct {
	Epoch   int64
	Assert  []ast.Atom
	Retract []ast.Atom
}

// BatchResult reports what one Apply changed.
type BatchResult struct {
	// Epoch is the epoch after the batch (unchanged for a noop batch).
	Epoch int64 `json:"epoch"`
	// Asserted and Retracted count effective base-EDB changes; Noop*
	// count entries that changed nothing (assert of a present fact,
	// retract of an absent one).
	Asserted     int `json:"asserted"`
	Retracted    int `json:"retracted"`
	NoopAsserts  int `json:"noop_asserts,omitempty"`
	NoopRetracts int `json:"noop_retracts,omitempty"`
}

// Changed reports whether the batch changed the base EDB.
func (r BatchResult) Changed() bool { return r.Asserted+r.Retracted > 0 }

// MatResult is one materialized serve: the answers at the epoch they
// reflect, plus how the entry was brought there.
type MatResult struct {
	Answers map[string]bool
	// Epoch is the mutation epoch the answers reflect.
	Epoch int64
	// Kind is the refresh disposition: "hit" (already current), "delta"
	// (caught up from logged batches), "rebuild" (recomputed from the
	// base), or "build" (computed for the first time).
	Kind string
	// Batches is the number of logged batches a delta refresh replayed.
	Batches int
	// RefreshWall is the wall time of a non-hit refresh (0 on a hit).
	RefreshWall time.Duration
	// PlanHit reports whether the plan cache already had the compiled
	// plan for this (query, strategy).
	PlanHit bool
}

// DurableLog is the materializer's view of a write-ahead log (implemented
// by cmd/factorlogd over internal/wal). Append must make the batch durable
// before returning — the materializer calls it before advancing the epoch,
// so an Append error leaves the batch unacknowledged and the base EDB
// unchanged. Since serves trimmed history back to refreshes: batches with
// epochs in (after, current], ok=false when the log cannot produce them
// (compacted or failed).
type DurableLog interface {
	Append(MutationBatch) error
	Since(after int64) ([]MutationBatch, bool)
}

// MaterializerOptions bounds the registry.
type MaterializerOptions struct {
	// Entries bounds live materializations (LRU-evicted past it);
	// 0 means 64.
	Entries int
	// LogLimit bounds retained mutation batches; entries further behind
	// than the log reaches refresh by rebuild — unless Durable still holds
	// the trimmed batches, in which case the refresh replays them from
	// the durable log instead.
	LogLimit int
	// StartEpoch is the epoch NewMaterializer's image begins at
	// (NewMaterializerOn starts at its image's own epoch — the recovered
	// one, when the image was rebuilt from a snapshot + log tail).
	StartEpoch int64
	// Durable, when non-nil, receives every effective batch before it is
	// acknowledged and serves trimmed batches back to refreshes.
	Durable DurableLog
	// Engine carries per-entry build and maintenance budgets (its
	// StartEpoch is not consulted: an entry starts at the epoch of the
	// image version it is built from).
	Engine engine.MaterializeOptions
}

// matEntry is one registered materialization. mu is held across a refresh
// and the answer read that follows it, so two requests for one shape
// serialize while requests for different shapes do not.
type matEntry struct {
	key         string
	prog        *ast.Program // the program the strategy evaluates
	query       ast.Atom     // the answer atom of that program
	transformed bool         // query is a rewritten predicate (see ProjectAnswers)
	pl          *Pipeline    // reads the answers (ProjectAnswers)
	elem        *list.Element

	mu  sync.Mutex
	mat *engine.Materialization // guarded by mu; nil until the first build succeeds
}

// Materializer owns the base image and the materialization registry.
//
// Two locks, never held together for long. The registry lock mu guards the
// entries map, the LRU order, the batch log and the counters, and is the
// lock under which Apply publishes a new image version — so a (version,
// log) pair read under it is consistent. It is held for map operations
// only. Each entry's own mutex is held across that entry's refresh and
// answer read: a build or a replay works from an immutable version and an
// append-only log slice, so it needs nothing from the registry while it
// runs. Two cold builds, or a build and a hit on another entry, run side by
// side, and Apply waits for neither. Writers serialize on the image's own
// writer lock (engine.Base.Begin … Commit), which spans the durable append.
type Materializer struct {
	prog        *ast.Program
	progHash    string
	constraints []ast.Rule
	plans       *PlanCache
	arity       map[string]int
	base        *engine.Base
	opts        MaterializerOptions

	mu      sync.Mutex
	log     []MutationBatch // consecutive epochs ending at the current version's; re-sliced, never overwritten
	entries map[string]*matEntry
	order   *list.List // front = most recently served

	batches, asserted, retracted    int64
	noopAsserts, noopRetracts       int64
	evictions, hitCount, deltaCount int64
	walDeltaCount                   int64
	rebuildCount, buildCount        int64
	refreshWall                     *obsv.Histogram
	changeRatio                     *obsv.ValueHistogram
}

// NewMaterializer is NewMaterializerOn over a fresh image of base at
// opts.StartEpoch. The base atoms must be ground with consistent arities
// (engine.ErrMutation otherwise); duplicates collapse.
func NewMaterializer(prog *ast.Program, constraints []ast.Rule, base []ast.Atom,
	plans *PlanCache, opts MaterializerOptions) (*Materializer, error) {
	image, err := engine.NewBase(base, opts.StartEpoch)
	if err != nil {
		return nil, err
	}
	return NewMaterializerOn(prog, constraints, image, plans, opts)
}

// NewMaterializerOn builds a materializer over a base image, starting at
// the image's epoch (opts.StartEpoch is not consulted). The image's
// arities must agree with the program's (engine.ErrMutation otherwise).
// plans may be shared with non-materialized serving so compiled-plan reuse
// spans both paths.
func NewMaterializerOn(prog *ast.Program, constraints []ast.Rule, image *engine.Base,
	plans *PlanCache, opts MaterializerOptions) (*Materializer, error) {
	if opts.Entries <= 0 {
		opts.Entries = 64
	}
	if opts.LogLimit <= 0 {
		opts.LogLimit = 256
	}
	if plans == nil {
		plans = NewPlanCache()
	}
	arity, err := prog.PredArities()
	if err != nil {
		return nil, err
	}
	v := image.Current()
	for _, pred := range v.Preds() {
		if known, ok := arity[pred]; ok && known != v.Relation(pred).Arity() {
			return nil, fmt.Errorf("%w: %s used with arity %d and %d",
				engine.ErrMutation, pred, known, v.Relation(pred).Arity())
		}
	}
	return &Materializer{
		prog:        prog,
		progHash:    HashProgram(prog, constraints),
		constraints: constraints,
		plans:       plans,
		arity:       arity,
		base:        image,
		entries:     map[string]*matEntry{},
		order:       list.New(),
		opts:        opts,
		refreshWall: obsv.NewHistogram(),
		changeRatio: obsv.NewValueHistogram(obsv.ChangeRatioBounds()),
	}, nil
}

// checkAtom validates one mutation atom: ground, and consistent with the
// program's declared arity when the predicate is known. Unknown predicates
// are legal — new EDB relations may appear by assertion — mirroring
// engine.Materialization's validation.
func (m *Materializer) checkAtom(a ast.Atom) error {
	if !a.Ground() {
		return fmt.Errorf("%w: %s is not ground", engine.ErrMutation, a)
	}
	if known, ok := m.arity[a.Pred]; ok && known != len(a.Args) {
		return fmt.Errorf("%w: %s used with arity %d and %d",
			engine.ErrMutation, a.Pred, known, len(a.Args))
	}
	return nil
}

// ProgramHash returns the canonical hash of the program + constraints the
// materializer serves — the identity the durable log's recovery checks.
func (m *Materializer) ProgramHash() string { return m.progHash }

// Version returns the current base image version: the base EDB and the
// epoch it reflects, as one immutable value.
func (m *Materializer) Version() *engine.Version { return m.base.Current() }

// Epoch returns the current mutation epoch.
func (m *Materializer) Epoch() int64 { return m.base.Current().Epoch() }

// BaseCount returns the number of live base facts.
func (m *Materializer) BaseCount() int { return m.base.Current().Facts() }

// BaseFacts renders the live base EDB as ground atoms — what a
// from-scratch evaluation through engine.LoadFacts would load. Serving
// paths read Version instead.
func (m *Materializer) BaseFacts() []ast.Atom { return m.base.Current().Atoms() }

// BaseSnapshot is BaseFacts together with the epoch it reflects.
func (m *Materializer) BaseSnapshot() ([]ast.Atom, int64) {
	v := m.base.Current()
	return v.Atoms(), v.Epoch()
}

// Apply applies one mutation batch to the base EDB: retractions first,
// then assertions, so a fact in both lists ends up present. Validation
// rejects the whole batch before any change (engine.ErrMutation). An
// effective batch is made durable, then published as the next image
// version together with its log entry; a batch of pure noops changes
// nothing, and a batch that cannot be made durable is never published.
// Registered materializations are not touched — they catch up lazily on
// their next Serve.
func (m *Materializer) Apply(assert, retract []ast.Atom) (BatchResult, error) {
	for _, a := range assert {
		if err := m.checkAtom(a); err != nil {
			return BatchResult{Epoch: m.Epoch()}, err
		}
	}
	for _, a := range retract {
		if err := m.checkAtom(a); err != nil {
			return BatchResult{Epoch: m.Epoch()}, err
		}
	}
	tx, err := m.base.Begin(assert, retract)
	if err != nil {
		return BatchResult{Epoch: m.Epoch()}, err
	}
	defer tx.Abort()
	eff := MutationBatch{Epoch: tx.Epoch(), Assert: tx.Assert, Retract: tx.Retract}
	if tx.Changed() && m.opts.Durable != nil {
		if err := m.opts.Durable.Append(eff); err != nil {
			return BatchResult{Epoch: m.Epoch()}, fmt.Errorf("durable log append: %w", err)
		}
	}
	res := BatchResult{
		Epoch:        eff.Epoch,
		Asserted:     len(eff.Assert),
		Retracted:    len(eff.Retract),
		NoopAsserts:  len(assert) - len(eff.Assert),
		NoopRetracts: len(retract) - len(eff.Retract),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tx.Commit()
	m.noopAsserts += int64(res.NoopAsserts)
	m.noopRetracts += int64(res.NoopRetracts)
	if res.Changed() {
		m.log = append(m.log, eff)
		if len(m.log) > m.opts.LogLimit {
			m.log = append([]MutationBatch(nil), m.log[len(m.log)-m.opts.LogLimit:]...)
		}
		m.batches++
		m.asserted += int64(res.Asserted)
		m.retracted += int64(res.Retracted)
	}
	return res, nil
}

// Serve answers query under strategy from the registry, refreshing (or
// building) the entry to the current epoch first. The compiled plan comes
// from the shared plan cache, so materialized serving keeps the plan-cache
// counters meaningful. ctx bounds the refresh, builds included: a deadline
// or cancellation stops it with the engine's typed errors, a half-built
// entry is discarded, and the next Serve builds again.
func (m *Materializer) Serve(ctx context.Context, query ast.Atom, strategy Strategy) (*MatResult, error) {
	if !MaterializableStrategy(strategy) {
		return nil, fmt.Errorf("%w: %v", ErrNotMaterializable, strategy)
	}
	plan, planHit, err := m.plans.Lookup(ctx, m.prog, m.progHash, m.constraints, query, strategy)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	key := query.CanonicalKey() + "|" + strategy.String()
	e := m.entries[key]
	if e == nil {
		prog, ansQuery, transformed, perr := plan.Pipeline().MaterializedProgram(strategy)
		if perr != nil {
			m.mu.Unlock()
			return nil, perr
		}
		e = &matEntry{key: key, prog: prog, query: ansQuery,
			transformed: transformed, pl: plan.Pipeline()}
		e.elem = m.order.PushFront(e)
		m.entries[key] = e
		for len(m.entries) > m.opts.Entries {
			tail := m.order.Back()
			victim := tail.Value.(*matEntry)
			m.order.Remove(tail)
			delete(m.entries, victim.key)
			m.evictions++
		}
	} else {
		m.order.MoveToFront(e.elem)
	}
	// Read under the registry lock, the version and the log agree: the log
	// ends at the version's epoch.
	target, log := m.base.Current(), m.log
	m.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	rf, err := m.refresh(ctx, e, target, log)
	if err != nil {
		return nil, err
	}
	answers, err := e.pl.ProjectAnswers(e.mat.DB(), e.query, e.transformed)
	if err != nil {
		return nil, err
	}
	m.record(rf, e.mat.DB().TotalFacts())
	return &MatResult{Answers: answers, Epoch: e.mat.Epoch(), Kind: rf.kind,
		Batches: rf.batches, RefreshWall: rf.wall, PlanHit: planHit}, nil
}

// refreshed describes one successful refresh.
type refreshed struct {
	kind    string
	batches int
	fromWal bool
	wall    time.Duration
	changed int // presence changes the refresh caused (all facts, for a build)
}

// record folds one refresh into the counters.
func (m *Materializer) record(rf refreshed, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch rf.kind {
	case "hit":
		m.hitCount++
		return
	case "delta":
		m.deltaCount++
		if rf.fromWal {
			m.walDeltaCount++
		}
	case "rebuild":
		m.rebuildCount++
	case "build":
		m.buildCount++
	}
	m.refreshWall.Observe(rf.wall)
	if total > 0 {
		m.changeRatio.Observe(float64(rf.changed) / float64(total))
	}
}

// refresh brings e to target's epoch (or leaves it where a racing Serve
// already took it, if that is later); the caller holds e.mu. log is the
// registry's batch log as of target. A failed refresh leaves the entry's
// materialization dirty (or absent), so the next Serve rebuilds; the base
// image is never affected.
func (m *Materializer) refresh(ctx context.Context, e *matEntry, target *engine.Version, log []MutationBatch) (rf refreshed, err error) {
	if e.mat != nil && !e.mat.Dirty() && e.mat.Epoch() >= target.Epoch() {
		return refreshed{kind: "hit"}, nil
	}
	defer func() {
		// The MatRefresh fault and any maintenance panic surface here as a
		// typed internal error; the dirty entry rebuilds on the next Serve.
		if r := recover(); r != nil {
			err = &engine.PanicError{Where: "refresh", Value: r, Stack: debug.Stack()}
		}
	}()
	start := time.Now()
	faultinject.Hit(faultinject.MatRefresh)

	// Pick the batch source for an incremental catch-up: the in-memory log
	// when it reaches back far enough, else the durable log — LogLimit may
	// have trimmed batches the WAL still holds, and replaying them beats a
	// from-scratch rebuild.
	var replay []MutationBatch
	if e.mat != nil && !e.mat.Dirty() {
		from := e.mat.Epoch()
		if len(log) > 0 && log[0].Epoch <= from+1 {
			replay = log[from+1-log[0].Epoch:]
		} else if m.opts.Durable != nil {
			if got, ok := m.opts.Durable.Since(from); ok && coversRange(got, from, target.Epoch()) {
				replay, rf.fromWal = got[:target.Epoch()-from], true
			}
		}
	}

	if len(replay) > 0 {
		rf.kind = "delta"
		for _, b := range replay {
			// Facts of predicates the entry never reads cannot change it;
			// the batch still advances its epoch.
			st, aerr := e.mat.Apply(ctx, readBy(e.mat, b.Assert), readBy(e.mat, b.Retract))
			if aerr != nil {
				return rf, aerr
			}
			rf.changed += st.Changed()
			rf.batches++
		}
	} else {
		rf.kind = "rebuild"
		if e.mat == nil {
			rf.kind = "build"
		}
		mat, merr := engine.MaterializeVersion(ctx, e.prog, target, m.opts.Engine, e.query.Pred)
		if merr != nil {
			return rf, merr
		}
		e.mat = mat
		rf.changed = mat.DB().TotalFacts()
	}
	rf.wall = time.Since(start)
	return rf, nil
}

// readBy returns the atoms whose predicate mat reads, sharing atoms'
// storage when that is all of them.
func readBy(mat *engine.Materialization, atoms []ast.Atom) []ast.Atom {
	for i, a := range atoms {
		if mat.Reads(a.Pred) {
			continue
		}
		kept := append([]ast.Atom(nil), atoms[:i]...)
		for _, a := range atoms[i+1:] {
			if mat.Reads(a.Pred) {
				kept = append(kept, a)
			}
		}
		return kept
	}
	return atoms
}

// coversRange checks that durable-log batches start the exact consecutive
// chain after from and reach at least to — a defensive guard so a lagging
// or gappy log can never be replayed as a delta. (The durable log may
// already hold batches past to: Apply appends before it publishes.)
func coversRange(batches []MutationBatch, from, to int64) bool {
	if int64(len(batches)) < to-from {
		return false
	}
	for i, b := range batches[:to-from] {
		if b.Epoch != from+int64(i)+1 {
			return false
		}
	}
	return true
}

// Stats snapshots the mutation + materialization counters for /metrics.
func (m *Materializer) Stats() obsv.MutationStats {
	v := m.base.Current()
	m.mu.Lock()
	defer m.mu.Unlock()
	wall := *m.refreshWall
	wall.BucketCounts = append([]int64(nil), m.refreshWall.BucketCounts...)
	ratio := *m.changeRatio
	ratio.BucketCounts = append([]int64(nil), m.changeRatio.BucketCounts...)
	return obsv.MutationStats{
		Epoch:          v.Epoch(),
		BaseFacts:      v.Facts(),
		Batches:        m.batches,
		FactsAsserted:  m.asserted,
		FactsRetracted: m.retracted,
		NoopAsserts:    m.noopAsserts,
		NoopRetracts:   m.noopRetracts,
		Entries:        len(m.entries),
		Evictions:      m.evictions,
		Hits:           m.hitCount,
		Deltas:         m.deltaCount,
		WalDeltas:      m.walDeltaCount,
		Rebuilds:       m.rebuildCount,
		Builds:         m.buildCount,
		RefreshWall:    &wall,
		ChangeRatio:    &ratio,
	}
}
