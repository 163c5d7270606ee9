package pipeline

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
)

// PlanKey identifies a family of compiled plans: one program, one query
// predicate, one binding pattern, one strategy. Everything the rewrite
// pipeline does — adornment, Magic rules, factoring, the Section 5
// clean-up — is determined by this key plus the query's bound constants.
type PlanKey struct {
	// ProgramHash fingerprints the IDB rules and constraints (HashProgram).
	ProgramHash string
	// QueryPred is the queried predicate.
	QueryPred string
	// Adornment is the query's binding pattern (b = ground argument).
	Adornment ast.Adornment
	// Strategy is the evaluation strategy the plan compiles.
	Strategy Strategy
}

// Plan is a compiled (program, query, strategy) triple ready for repeated
// evaluation: its Pipeline has the strategy's transformation chain forced,
// so Run pays only evaluation cost. Plans are immutable after construction
// and safe for concurrent Run calls, each over its own EDB.
type Plan struct {
	Key PlanKey
	// Binding renders the query's bound constants, e.g. "(5)". Plans
	// specialize on it: the magic seed fact carries the constants, and the
	// Section 5 optimizer (Prop. 5.3) deletes literals mentioning exactly
	// those constants — two queries with the same adornment but different
	// constants compile to different programs.
	Binding string
	// Query is the exact query atom the plan was compiled for.
	Query ast.Atom
	// CompileWall is the wall-clock time buildPlan spent compiling the
	// transformation chain, reported by EXPLAIN's plan-cache disposition.
	CompileWall time.Duration

	pl *Pipeline
}

// Pipeline returns the plan's underlying pipeline (for Explain-style
// inspection).
func (p *Plan) Pipeline() *Pipeline { return p.pl }

// Run evaluates the plan over db with the given engine options. The db is
// consumed (derived relations are added); pass a fresh one per run.
func (p *Plan) Run(db *engine.DB, opts engine.Options) (*RunResult, error) {
	return p.pl.Run(p.Key.Strategy, db, opts)
}

// HashProgram fingerprints a program plus constraints for PlanKey: two
// loads of the same source text agree, and any rule or constraint change
// produces a new hash (so a restarted server never reuses stale plans).
func HashProgram(p *ast.Program, constraints []ast.Rule) string {
	h := sha256.New()
	fmt.Fprintln(h, p.String())
	for _, c := range constraints {
		fmt.Fprintln(h, c.String())
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// BindingOf renders the query's ground arguments in position order, the
// constant half of a plan's identity. Queries with no bound arguments
// render as "()".
func BindingOf(query ast.Atom) string {
	var b strings.Builder
	b.WriteByte('(')
	first := true
	for _, t := range query.Args {
		if !t.Ground() {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// cacheID is the full identity of a cached plan: the family key plus the
// query's canonical form (ast.Atom.CanonicalKey), which carries both the
// bound constants (see Plan.Binding for why constants matter) and the
// variable-equality pattern — t(X,X) canonicalizes to t(V0,V0) and t(X,Y)
// to t(V0,V1), so they never share a plan even though both adorn as "ff".
type cacheID struct {
	key   PlanKey
	canon string
}

// cacheEntry is built by the lookup that creates it; concurrent lookups of
// the same identity wait on ready and share the outcome — including a
// permanent failure, e.g. a non-factorable program (negative results are
// worth caching too, a server would otherwise re-derive the refutation on
// every request). Transient failures — cancellation, deadline, budget
// kills, recovered compile panics — are the exception: the builder forgets
// the entry before publishing, so the outcome reaches the waiters that
// raced with it but is never served to later lookups (see
// transientCompileErr). Waiters wait with their own context, so a slow or
// wedged compile cannot hold an unrelated request past its deadline.
type cacheEntry struct {
	ready chan struct{} // closed once plan/err are set
	plan  *Plan
	err   error
}

// DefaultPlanCacheLimit is the entry bound NewPlanCache uses. Plans hold
// only programs, not EDB data, so a thousand of them is small; the bound
// exists because plan identity includes client-supplied bound constants,
// and a serving process exposed to arbitrary clients must not let a
// constant-sweeping workload (t(1,Y), t(2,Y), ...) grow memory forever.
const DefaultPlanCacheLimit = 1024

// PlanCache memoizes compiled plans for a serving process. It is safe for
// concurrent use and bounded: once the entry limit is reached, the least
// recently used plan is evicted (and recompiled if queried again).
type PlanCache struct {
	mu        sync.Mutex
	limit     int
	order     *list.List // *lruSlot, most recently used first
	entries   map[cacheID]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// lruSlot is an order-list element: the entry plus the id that maps to it,
// so eviction of the list tail can delete its map key.
type lruSlot struct {
	id    cacheID
	entry *cacheEntry
}

// NewPlanCache returns an empty cache bounded at DefaultPlanCacheLimit.
func NewPlanCache() *PlanCache {
	return NewPlanCacheLimit(DefaultPlanCacheLimit)
}

// NewPlanCacheLimit returns an empty cache holding at most limit entries
// (limit <= 0 means unbounded).
func NewPlanCacheLimit(limit int) *PlanCache {
	return &PlanCache{
		limit:   limit,
		order:   list.New(),
		entries: map[cacheID]*list.Element{},
	}
}

// Lookup returns the compiled plan for (prog, query, strategy), compiling
// and caching it on first use. hit reports whether a cached entry was
// reused (or waited on, if another lookup was mid-compile). progHash must
// be HashProgram(prog, constraints), computed once by the caller; prog and
// constraints must not change for a given hash.
//
// ctx bounds this caller's wait only: a waiter whose context expires while
// another lookup compiles gets a typed engine error without disturbing the
// compile. A compile that itself fails transiently — canceled, over
// budget, or panicking (converted to engine.ErrInternal by the recover
// barrier) — is reported to the lookups that raced with it but is NOT
// negative-cached: the entry is forgotten and the next lookup recompiles.
func (c *PlanCache) Lookup(ctx context.Context, prog *ast.Program, progHash string,
	constraints []ast.Rule, query ast.Atom, strategy Strategy) (plan *Plan, hit bool, err error) {
	key := PlanKey{
		ProgramHash: progHash,
		QueryPred:   query.Pred,
		Adornment:   ast.AdornmentOf(query, nil),
		Strategy:    strategy,
	}
	id := cacheID{key: key, canon: query.CanonicalKey()}

	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		c.hits++
		c.order.MoveToFront(el)
		e := el.Value.(*lruSlot).entry
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.plan, true, e.err
		case <-ctx.Done():
			return nil, true, fmt.Errorf("awaiting plan compile: %w", typedCtxErr(ctx))
		}
	}
	c.misses++
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[id] = c.order.PushFront(&lruSlot{id: id, entry: e})
	if c.limit > 0 && len(c.entries) > c.limit {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*lruSlot).id)
		c.evictions++
	}
	c.mu.Unlock()

	e.plan, e.err = buildPlan(ctx, prog, constraints, query, key, strategy)
	if e.err != nil && transientCompileErr(e.err) {
		c.forget(id, e)
	}
	close(e.ready)
	return e.plan, false, e.err
}

// buildPlan compiles one plan behind a recover barrier. A panic anywhere in
// the rewrite pipeline (adornment, Magic, factoring, the Section 5 clean-up)
// becomes a typed engine.ErrInternal instead of killing the process.
func buildPlan(ctx context.Context, prog *ast.Program, constraints []ast.Rule,
	query ast.Atom, key PlanKey, strategy Strategy) (plan *Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: panic compiling %s plan for %s%s: %v",
				engine.ErrInternal, strategy, query.Pred, key.Adornment, r)
		}
	}()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("compile %s for %s%s: %w", strategy, query.Pred, key.Adornment, typedCtxErr(ctx))
	}
	faultinject.Hit(faultinject.PlanCompile)
	start := time.Now()
	pl := New(prog, query)
	if len(constraints) > 0 {
		pl.WithConstraints(constraints)
	}
	if cerr := pl.Compile(strategy); cerr != nil {
		return nil, fmt.Errorf("compile %s for %s%s: %w", strategy, query.Pred, key.Adornment, cerr)
	}
	return &Plan{Key: key, Binding: BindingOf(query), Query: query,
		CompileWall: time.Since(start), pl: pl}, nil
}

// typedCtxErr maps a done context to the engine's typed sentinels so HTTP
// handlers classify cache waits the same way they classify evaluations.
func typedCtxErr(ctx context.Context) error {
	cause := context.Cause(ctx)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", engine.ErrDeadlineExceeded, cause)
	}
	return fmt.Errorf("%w: %v", engine.ErrCanceled, cause)
}

// transientCompileErr reports whether a compile failure says nothing about
// the (program, query, strategy) identity itself — the caller was canceled,
// a budget tripped, or a fault/panic fired — and so must not be negative-
// cached. Permanent refutations (non-factorable program, bad adornment)
// stay cached.
func transientCompileErr(err error) bool {
	for _, sentinel := range []error{
		engine.ErrCanceled, engine.ErrDeadlineExceeded,
		engine.ErrBudgetExceeded, engine.ErrMemoryBudget, engine.ErrInternal,
		context.Canceled, context.DeadlineExceeded,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// forget removes id from the cache if it still maps to e (it may already
// have been evicted, or replaced after an earlier forget).
func (c *PlanCache) forget(id cacheID, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok && el.Value.(*lruSlot).entry == e {
		c.order.Remove(el)
		delete(c.entries, id)
	}
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() obsv.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obsv.CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
	}
}
