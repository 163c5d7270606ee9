package pipeline

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/cost"
	"factorlog/internal/obsv"
)

// This file is the planner layer of the adaptive optimizer (ROADMAP item
// 4): the Auto strategy. A candidate enumerator walks the eligible fixed
// strategies × body-literal orderings, pruning the candidates the §4 class
// tests reject; the cost model in internal/cost ranks the survivors against
// an EDB statistics snapshot. A long-lived server wraps the enumeration in an
// AutoPlanner, which remembers decisions per query shape and shadow
// re-costs them as the EDB mutates (see docs/PLANNER.md).

// ErrAutoUnsupported reports an Auto request on a surface that needs a
// caller-fixed strategy (provenance evaluation). HTTP handlers map it to a
// 400.
var ErrAutoUnsupported = errors.New("auto strategy is not supported here")

// CandidateInfo is one row of the planner's candidate table, surfaced by
// EXPLAIN and the /query response for Auto requests.
type CandidateInfo struct {
	// Strategy is the candidate's fixed strategy name.
	Strategy string `json:"strategy"`
	// Adornment is the query's binding pattern the candidate compiled under.
	Adornment string `json:"adornment"`
	// Reorder reports the body-literal ordering dimension: false prices the
	// rules as written, true prices the greedy most-bound-first reordering
	// (engine.Options.ReorderJoins).
	Reorder bool `json:"reorder,omitempty"`
	// Cost, Rows, and Rounds are the model's estimates (absent for rejected
	// candidates).
	Cost   float64 `json:"est_cost,omitempty"`
	Rows   float64 `json:"est_rows,omitempty"`
	Rounds int     `json:"est_rounds,omitempty"`
	// Chosen marks the winning candidate.
	Chosen bool `json:"chosen,omitempty"`
	// Reason says why the candidate won, lost, or was rejected by the class
	// tests.
	Reason string `json:"reason,omitempty"`
}

// AutoDecision is the outcome of one plan search.
type AutoDecision struct {
	// Strategy and Reorder identify the winning candidate; Cost is its
	// estimate.
	Strategy Strategy
	Reorder  bool
	Cost     float64
	// Candidates is the full table the search considered.
	Candidates []CandidateInfo
}

// pickAbort wraps an error that must abort the whole plan search (caller
// canceled, deadline passed) rather than count as a candidate rejection.
type pickAbort struct{ err error }

func (p pickAbort) Error() string { return p.err.Error() }
func (p pickAbort) Unwrap() error { return p.err }

// autoEnumerate runs the candidate search shared by Pipeline.AutoPick and
// AutoPlanner: programFor compiles one strategy and returns the program it
// would evaluate (an error prunes the candidate; wrap it in pickAbort to
// abort the search instead).
func autoEnumerate(query ast.Atom, snap *cost.Snapshot,
	programFor func(Strategy) (*ast.Program, error)) (*AutoDecision, error) {
	adornment := string(ast.AdornmentOf(query, nil))
	var cands []CandidateInfo
	best := -1
	var bestStrategy Strategy
	var bestReorder bool
	var bestCost float64
	for _, s := range AutoCandidateStrategies() {
		prog, err := programFor(s)
		if err != nil {
			var abort pickAbort
			if errors.As(err, &abort) {
				return nil, abort.err
			}
			cands = append(cands, CandidateInfo{
				Strategy:  s.String(),
				Adornment: adornment,
				Reason:    "rejected: " + err.Error(),
			})
			continue
		}
		for _, reorder := range []bool{false, true} {
			est := cost.EstimateProgram(prog, snap, reorder)
			idx := len(cands)
			cands = append(cands, CandidateInfo{
				Strategy:  s.String(),
				Adornment: adornment,
				Reorder:   reorder,
				Cost:      est.Cost,
				Rows:      est.Rows,
				Rounds:    est.Rounds,
			})
			if best < 0 || est.Cost < bestCost {
				best, bestStrategy, bestReorder, bestCost = idx, s, reorder, est.Cost
			}
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("no eligible strategy for %s: every candidate was rejected", query)
	}
	cands[best].Chosen = true
	cands[best].Reason = "lowest estimated cost"
	for i := range cands {
		if i == best || cands[i].Reason != "" {
			continue
		}
		if bestCost > 0 {
			cands[i].Reason = fmt.Sprintf("%.2fx winner's estimated cost", cands[i].Cost/bestCost)
		} else {
			cands[i].Reason = "higher estimated cost"
		}
	}
	return &AutoDecision{
		Strategy:   bestStrategy,
		Reorder:    bestReorder,
		Cost:       bestCost,
		Candidates: cands,
	}, nil
}

// AutoPick runs the plan search on this pipeline against snap: it compiles
// each candidate strategy (memoized — rejected class tests stay rejected),
// prices the survivors in both body orders, and returns the decision.
func (pl *Pipeline) AutoPick(snap *cost.Snapshot) (*AutoDecision, error) {
	return autoEnumerate(pl.Query, snap, func(s Strategy) (*ast.Program, error) {
		prog, _, _, err := pl.MaterializedProgram(s)
		return prog, err
	})
}

// AutoPolicy governs when a served Auto decision is shadow re-costed and
// how decisively a rival must win to replace it.
type AutoPolicy struct {
	// RecostEpochs re-costs a decision once the mutation epoch has advanced
	// at least this much since it was made (<= 0 means 16).
	RecostEpochs int64
	// RecostRatio re-costs earlier when the mutated-row count since the
	// decision, over the base size at decision time, reaches this ratio
	// (<= 0 means 0.25; the mat_change_ratio trigger).
	RecostRatio float64
	// Margin is the factor a rival's estimate must beat the incumbent's
	// fresh estimate by to invalidate it: switch when rival*Margin <
	// incumbent (<= 1 means 1.2).
	Margin float64
}

func (p AutoPolicy) withDefaults() AutoPolicy {
	if p.RecostEpochs <= 0 {
		p.RecostEpochs = 16
	}
	if p.RecostRatio <= 0 {
		p.RecostRatio = 0.25
	}
	if p.Margin <= 1 {
		p.Margin = 1.2
	}
	return p
}

// StatsSource supplies a fresh statistics snapshot; the caller should cache
// per epoch (building one is O(base facts)).
type StatsSource func() *cost.Snapshot

// autoEntry is one remembered decision with the snapshot coordinates it was
// made at, plus observed row counts from traced runs of its query.
type autoEntry struct {
	canon     string // the decisions key, so evicting the list tail can delete it
	dec       *AutoDecision
	epoch     int64
	mutations int64
	rows      int
	observed  map[string]float64
}

// AutoPlanner serves Auto decisions for a long-lived process: one decision
// per canonical query shape, compiled plans shared through the PlanCache, and
// shadow re-costing driven by the policy's epoch and change-ratio triggers.
//
// Concurrent Choose calls for the same stale shape may race and both
// re-cost; the work is bounded (plan compiles dedupe in the cache) and the
// last writer's decision sticks.
//
// Decisions are keyed like plans — the canonical query carries its bound
// constants — so they are bounded like plans: past the plan cache's entry
// limit the least recently chosen decision is dropped, and its shape simply
// re-picks if it is asked again.
type AutoPlanner struct {
	prog        *ast.Program
	progHash    string
	constraints []ast.Rule
	cache       *PlanCache
	stats       StatsSource
	policy      AutoPolicy

	mu                            sync.Mutex
	order                         *list.List // *autoEntry, most recently chosen first
	decisions                     map[string]*list.Element
	picks, recosts, repicks, wins int64
	picksBy                       map[string]int64
	recostWall                    *obsv.Histogram
}

// NewAutoPlanner builds a planner over one program. stats must not be nil;
// cache may be shared with fixed-strategy serving.
func NewAutoPlanner(prog *ast.Program, constraints []ast.Rule, cache *PlanCache,
	stats StatsSource, policy AutoPolicy) *AutoPlanner {
	if cache == nil {
		cache = NewPlanCache()
	}
	return &AutoPlanner{
		prog:        prog,
		progHash:    HashProgram(prog, constraints),
		constraints: constraints,
		cache:       cache,
		stats:       stats,
		policy:      policy.withDefaults(),
		order:       list.New(),
		decisions:   map[string]*list.Element{},
		picksBy:     map[string]int64{},
		recostWall:  obsv.NewHistogram(),
	}
}

// AutoServe is one resolved Auto request: the winning plan and how it was
// arrived at.
type AutoServe struct {
	// Plan is the winner's compiled plan; Strategy and Reorder its
	// identity.
	Plan     *Plan
	Strategy Strategy
	Reorder  bool
	// Candidates is the decision's candidate table.
	Candidates []CandidateInfo
	// PlanHit reports whether the winner's plan came from the cache.
	PlanHit bool
	// Recosted reports that this call ran a shadow re-costing pass;
	// Repicked that the pass switched strategies.
	Recosted, Repicked bool
}

// Choose resolves query under the Auto strategy: a fresh decision on first
// sight, the remembered one while its statistics stay fresh, and a shadow
// re-cost (switching only past the margin) when the epoch or change-ratio
// trigger fires.
func (ap *AutoPlanner) Choose(ctx context.Context, query ast.Atom) (*AutoServe, error) {
	snap := ap.stats()
	canon := query.CanonicalKey()

	ap.mu.Lock()
	e := ap.touchLocked(canon)
	if e != nil && !ap.staleLocked(e, snap) {
		dec := e.dec
		ap.mu.Unlock()
		plan, hit, err := ap.cache.Lookup(ctx, ap.prog, ap.progHash, ap.constraints, query, dec.Strategy)
		if err != nil {
			return nil, err
		}
		return &AutoServe{Plan: plan, Strategy: dec.Strategy, Reorder: dec.Reorder,
			Candidates: dec.Candidates, PlanHit: hit}, nil
	}
	var incumbent *AutoDecision
	var observed map[string]float64
	if e != nil {
		incumbent = e.dec
		observed = e.observed
	}
	ap.mu.Unlock()

	start := time.Now()
	dec, err := autoEnumerate(query, snap.WithObserved(observed), func(s Strategy) (*ast.Program, error) {
		plan, _, lerr := ap.cache.Lookup(ctx, ap.prog, ap.progHash, ap.constraints, query, s)
		if lerr != nil {
			if ctx.Err() != nil || transientCompileErr(lerr) {
				return nil, pickAbort{lerr}
			}
			return nil, lerr
		}
		prog, _, _, perr := plan.Pipeline().MaterializedProgram(s)
		return prog, perr
	})
	if err != nil {
		return nil, err
	}

	serve := &AutoServe{Recosted: incumbent != nil}
	if incumbent != nil && dec.Strategy != incumbent.Strategy {
		// A rival won the fresh search. Replace the incumbent only when it
		// wins by the margin — plan churn has a cost the estimates don't see.
		if fresh, ok := candidateCost(dec.Candidates, incumbent.Strategy, incumbent.Reorder); ok &&
			!(dec.Cost*ap.policy.Margin < fresh) {
			dec = keepIncumbent(dec, incumbent)
		}
	}
	repicked := incumbent != nil && dec.Strategy != incumbent.Strategy

	plan, hit, err := ap.cache.Lookup(ctx, ap.prog, ap.progHash, ap.constraints, query, dec.Strategy)
	if err != nil {
		return nil, err
	}

	ap.mu.Lock()
	if incumbent != nil {
		ap.recosts++
		ap.recostWall.Observe(time.Since(start))
		if repicked {
			ap.repicks++
			ap.picksBy[dec.Strategy.String()]++
		} else {
			ap.wins++
		}
	} else {
		ap.picks++
		ap.picksBy[dec.Strategy.String()]++
	}
	ap.rememberLocked(&autoEntry{
		canon:     canon,
		dec:       dec,
		epoch:     snap.Epoch,
		mutations: snap.Mutations,
		rows:      snap.TotalRows,
		observed:  observed,
	})
	ap.mu.Unlock()

	serve.Plan, serve.Strategy, serve.Reorder = plan, dec.Strategy, dec.Reorder
	serve.Candidates, serve.PlanHit, serve.Repicked = dec.Candidates, hit, repicked
	return serve, nil
}

// touchLocked returns the remembered decision for canon, marking it most
// recently chosen; nil when the shape is new or was evicted.
func (ap *AutoPlanner) touchLocked(canon string) *autoEntry {
	el, ok := ap.decisions[canon]
	if !ok {
		return nil
	}
	ap.order.MoveToFront(el)
	return el.Value.(*autoEntry)
}

// rememberLocked stores e as the decision for its shape and evicts the
// least recently chosen decision past the plan cache's entry limit.
func (ap *AutoPlanner) rememberLocked(e *autoEntry) {
	if el, ok := ap.decisions[e.canon]; ok {
		el.Value = e
		ap.order.MoveToFront(el)
		return
	}
	ap.decisions[e.canon] = ap.order.PushFront(e)
	if ap.cache.limit > 0 && len(ap.decisions) > ap.cache.limit {
		tail := ap.order.Back()
		ap.order.Remove(tail)
		delete(ap.decisions, tail.Value.(*autoEntry).canon)
	}
}

// staleLocked reports whether e's statistics are out of date under the
// policy: the epoch advanced past RecostEpochs, or the rows mutated since
// the decision reached RecostRatio of the base it was made over.
func (ap *AutoPlanner) staleLocked(e *autoEntry, snap *cost.Snapshot) bool {
	if snap.Epoch-e.epoch >= ap.policy.RecostEpochs {
		return true
	}
	if snap.Mutations > e.mutations {
		base := float64(e.rows)
		if base < 1 {
			base = 1
		}
		if float64(snap.Mutations-e.mutations)/base >= ap.policy.RecostRatio {
			return true
		}
	}
	return false
}

// candidateCost finds the estimated cost of (strategy, reorder) in a
// candidate table.
func candidateCost(cands []CandidateInfo, s Strategy, reorder bool) (float64, bool) {
	for _, c := range cands {
		if c.Strategy == s.String() && c.Reorder == reorder && !rejected(c) {
			return c.Cost, true
		}
	}
	return 0, false
}

// rejected reports whether the class tests pruned the candidate (its Reason
// is autoEnumerate's "rejected: ...").
func rejected(c CandidateInfo) bool { return strings.HasPrefix(c.Reason, "rejected") }

// keepIncumbent rewrites a fresh decision to keep the incumbent candidate:
// the chosen flag moves to the incumbent's row and the reasons record that
// the rival missed the margin.
func keepIncumbent(fresh *AutoDecision, incumbent *AutoDecision) *AutoDecision {
	out := &AutoDecision{Strategy: incumbent.Strategy, Reorder: incumbent.Reorder,
		Candidates: append([]CandidateInfo(nil), fresh.Candidates...)}
	for i := range out.Candidates {
		c := &out.Candidates[i]
		if c.Strategy == incumbent.Strategy.String() && c.Reorder == incumbent.Reorder && !rejected(*c) {
			c.Chosen = true
			c.Reason = "incumbent kept: rival inside the re-cost margin"
			out.Cost = c.Cost
		} else if c.Chosen {
			c.Chosen = false
			c.Reason = "cheaper, but inside the re-cost margin"
		}
	}
	return out
}

// Observe folds a traced run's per-rule statistics into the decision for
// its query, so the next re-cost is calibrated by measured cardinalities.
// prog must be the program the run evaluated (RunResult.Program).
func (ap *AutoPlanner) Observe(query ast.Atom, prog *ast.Program, rules []obsv.RuleStats) {
	if len(rules) == 0 || prog == nil {
		return
	}
	ap.mu.Lock()
	defer ap.mu.Unlock()
	el, ok := ap.decisions[query.CanonicalKey()]
	if !ok {
		return
	}
	e := el.Value.(*autoEntry)
	e.observed = cost.ObserveRuleStats(e.observed, prog, rules)
}

// Stats snapshots the planner counters for /metrics.
func (ap *AutoPlanner) Stats() obsv.PlanSearchStats {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	wall := *ap.recostWall
	wall.BucketCounts = append([]int64(nil), ap.recostWall.BucketCounts...)
	by := make(map[string]int64, len(ap.picksBy))
	for k, v := range ap.picksBy {
		by[k] = v
	}
	return obsv.PlanSearchStats{
		Picks:           ap.picks,
		Recosts:         ap.recosts,
		Repicks:         ap.repicks,
		Wins:            ap.wins,
		PicksByStrategy: by,
		RecostWall:      &wall,
	}
}

// SnapshotSource adapts a Materializer into a StatsSource: the snapshot is
// taken from the base image when the epoch advances and cached otherwise,
// with the cumulative mutated-row count attached for the change-ratio
// trigger. Taking one recounts only the relations the batches since the
// last one touched (cost.SnapshotFromVersion).
func SnapshotSource(m *Materializer) StatsSource {
	var mu sync.Mutex
	var cached *cost.Snapshot
	return func() *cost.Snapshot {
		mu.Lock()
		defer mu.Unlock()
		v := m.Version()
		if cached != nil && cached.Epoch == v.Epoch() {
			return cached
		}
		snap := cost.SnapshotFromVersion(v)
		st := m.Stats()
		snap.Mutations = st.FactsAsserted + st.FactsRetracted
		cached = snap
		return snap
	}
}
