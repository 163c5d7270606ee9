package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/cq"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/resilience"
	"factorlog/internal/trace"
	"factorlog/internal/wal"
)

// errDraining is the cancel cause propagated into in-flight evaluations
// when shutdown begins; handlers translate it to a typed 503 body.
var errDraining = errors.New("server draining")

// retryAfterSeconds is the Retry-After hint on 429 (shed/queue-timeout) and
// 503 (draining) responses. Queries are short; one second is enough for the
// limiter to turn over without clients hammering the queue.
const retryAfterSeconds = 1

// statusClientClosedRequest is the de-facto code (nginx) for "the client
// went away before we could answer"; no standard code fits.
const statusClientClosedRequest = 499

// maxQueryBody caps a POST /query body; a query request is a few hundred
// bytes of JSON, so 1 MiB is generous while keeping arbitrary clients from
// streaming unbounded input into the decoder.
const maxQueryBody = 1 << 20

// queryIDHeader carries the server-minted query ID on every /query response
// (success and failure alike), so clients can correlate an answer, an error,
// a slowlog entry, and a /debug/trace/{id} lookup.
const queryIDHeader = "X-Factorlog-Query-ID"

// traceRingSize bounds the sampled-trace store and the slow-query log; both
// are debugging windows into recent traffic, not durable archives.
const traceRingSize = 64

type config struct {
	strategy string
	workers  int
	budget   int
	timeout  time.Duration
	// maxBytes caps each evaluation's arena+index footprint
	// (engine.Options.MaxBytes); 0 = unlimited.
	maxBytes int64
	// maxConcurrency is the admission limiter's capacity in weight units
	// (one unit per evaluation worker); <= 0 derives a default from workers.
	maxConcurrency int64
	// maxQueue bounds the admission wait queue; beyond it requests are shed
	// with 429.
	maxQueue int
	// traceSample traces one query in every N (0 = only EXPLAIN ANALYZE
	// queries are traced, 1 = all).
	traceSample int
	// slowQuery is the slow-query-log threshold; queries whose total wall
	// time meets it land in /debug/slowlog. 0 disables the log.
	slowQuery time.Duration
	// materialize serves eligible queries from incrementally-maintained
	// materializations instead of evaluating from scratch. /facts mutation
	// works either way; this only selects the query serving path.
	materialize bool
	// matEntries bounds the materialization registry (LRU past it);
	// <= 0 uses the registry default.
	matEntries int
	// walDir enables the durable write-ahead log: every committed /facts
	// batch is logged there before it is acknowledged, and startup replays
	// the newest snapshot plus the log tail. Empty disables durability.
	walDir string
	// fsyncInterval is the WAL group-commit window (0 = fsync every batch
	// before acknowledging it).
	fsyncInterval time.Duration
	// snapshotEvery writes a base snapshot after this many epochs since the
	// last one (<= 0 disables periodic snapshots; retention then never
	// prunes log segments).
	snapshotEvery int64
	// walSegmentBytes overrides the WAL segment rotation size (0 = the wal
	// package default). Not exposed as a flag; tests shrink it to exercise
	// rotation and retention without megabytes of batches.
	walSegmentBytes int64
}

// limiterCapacity derives the admission capacity: explicit when configured,
// otherwise enough weight for 8 default-shaped queries to run concurrently
// (each query weighs its effective worker count).
func (c config) limiterCapacity() int64 {
	if c.maxConcurrency > 0 {
		return c.maxConcurrency
	}
	w := int64(c.workers)
	if w < 1 {
		w = 1
	}
	return 8 * w
}

// server holds the immutable program state shared by all requests and the
// mutable serving metrics.
type server struct {
	prog        *ast.Program
	hash        string
	constraints []ast.Rule
	declared    []ast.Atom // ?- queries from the program file, warmed at startup

	// mat owns the base image (the program file's facts plus every /facts
	// batch since, as one versioned engine.Base) and the materialization
	// registry. All serving paths read the base through it; matServe selects
	// whether eligible queries answer from materializations or evaluate from
	// scratch over the current version.
	mat      *pipeline.Materializer
	matServe bool

	// wl is the durable write-ahead log (nil when -wal-dir is unset). The
	// materializer appends every committed batch before acknowledging it;
	// snapMu serializes periodic base snapshots, written after the epoch
	// advances snapshotEvery past the last one. replaying is true while
	// startup applies the recovered snapshot + log tail; /readyz answers
	// 503 until it clears.
	wl            *wal.Log
	snapMu        sync.Mutex
	snapshotEvery int64
	replaying     atomic.Bool

	cache *pipeline.PlanCache
	// planner resolves strategy=auto requests: EDB statistics from the
	// materializer's base, candidate enumeration over the plan cache, and
	// shadow re-costing as /facts batches advance the epoch.
	planner     *pipeline.AutoPlanner
	defStrategy pipeline.Strategy
	defOpts     engine.Options
	timeout     time.Duration
	start       time.Time

	// limiter is the /query admission gate; each request acquires weight
	// equal to its effective worker count before touching the evaluator.
	limiter *resilience.Limiter

	// ready flips true once warmup finishes; draining flips true when
	// shutdown begins. /readyz reports ready && !draining.
	ready    atomic.Bool
	draining atomic.Bool
	// evalCtx is canceled (cause errDraining) by beginDrain, aborting every
	// in-flight evaluation at its next round boundary.
	evalCtx    context.Context
	evalCancel context.CancelCauseFunc

	// sampler decides which queries record a span trace; traces holds the
	// recent traced queries (/debug/trace/{id}) and slowlog the recent slow
	// ones (/debug/slowlog). Both rings store only finished traces.
	sampler       *trace.Sampler
	traces        *trace.Ring
	slowlog       *trace.Ring
	slowThreshold time.Duration

	inflight  atomic.Int64
	mu        sync.Mutex // guards the obsv records below
	queries   int64
	errors    int64
	latency   map[string]*obsv.Histogram
	rounds    *obsv.ValueHistogram // per-query fixpoint rounds
	arena     *obsv.ValueHistogram // per-query arena+index bytes
	storageHW obsv.StorageStats    // heaviest per-request storage footprint
	panics    int64                // ErrInternal responses (recovered panics)
	degraded  int64                // parallel→sequential fallbacks that succeeded
	memStops  int64                // ErrMemoryBudget responses
	drained   int64                // requests refused or aborted by shutdown
	slowSeen  int64                // queries at or over the slow threshold
	traced    int64                // queries that recorded a span trace
}

func newServer(src, constraints string, cfg config) (*server, error) {
	u, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	var tgds []ast.Rule
	if constraints != "" {
		cp, err := parser.ParseProgram(constraints)
		if err != nil {
			return nil, err
		}
		for _, r := range cp.Rules {
			if err := cq.ValidateTGD(r); err != nil {
				return nil, err
			}
			tgds = append(tgds, r)
		}
	}
	strategy, err := pipeline.ParseStrategy(cfg.strategy)
	if err != nil {
		return nil, err
	}
	prog := u.Program()
	hash := pipeline.HashProgram(prog, tgds)
	cache := pipeline.NewPlanCache()

	// Durability: open (and recover) the write-ahead log before the
	// materializer exists, so the recovered base image and its epoch seed
	// it. A program-hash mismatch refuses startup — replaying another
	// program's mutation history would silently corrupt the base.
	var (
		base    *engine.Base
		wlog    *wal.Log
		durable pipeline.DurableLog
	)
	if cfg.walDir != "" {
		l, rec, err := wal.Open(wal.Options{
			Dir:           cfg.walDir,
			ProgramHash:   hash,
			FsyncInterval: cfg.fsyncInterval,
			SegmentBytes:  cfg.walSegmentBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		base, err = recoverBase(u.Facts, rec)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("wal replay: %w", err)
		}
		wlog, durable = l, walAdapter{l}
	} else if base, err = engine.NewBase(u.Facts, 0); err != nil {
		return nil, err
	}
	startEpoch := base.Current().Epoch()

	mat, err := pipeline.NewMaterializerOn(prog, tgds, base, cache,
		pipeline.MaterializerOptions{
			Entries: cfg.matEntries,
			Durable: durable,
			Engine: engine.MaterializeOptions{
				MaxFacts: cfg.budget,
				MaxBytes: cfg.maxBytes,
			},
		})
	if err != nil {
		if wlog != nil {
			wlog.Close()
		}
		return nil, err
	}
	evalCtx, evalCancel := context.WithCancelCause(context.Background())
	srv := &server{
		prog:          prog,
		hash:          hash,
		constraints:   tgds,
		declared:      u.Queries,
		mat:           mat,
		matServe:      cfg.materialize,
		wl:            wlog,
		snapshotEvery: cfg.snapshotEvery,
		cache:         cache,
		planner: pipeline.NewAutoPlanner(prog, tgds, cache,
			pipeline.SnapshotSource(mat), pipeline.AutoPolicy{}),
		defStrategy: strategy,
		defOpts: engine.Options{
			Workers:  cfg.workers,
			MaxFacts: cfg.budget,
			MaxBytes: cfg.maxBytes,
		},
		timeout:       cfg.timeout,
		start:         time.Now(),
		limiter:       resilience.NewLimiter(cfg.limiterCapacity(), cfg.maxQueue),
		evalCtx:       evalCtx,
		evalCancel:    evalCancel,
		latency:       map[string]*obsv.Histogram{},
		rounds:        obsv.NewValueHistogram(obsv.RoundsBucketBounds),
		arena:         obsv.NewValueHistogram(obsv.ArenaBucketBounds),
		sampler:       trace.NewSampler(cfg.traceSample),
		traces:        trace.NewRing(traceRingSize),
		slowlog:       trace.NewRing(traceRingSize),
		slowThreshold: cfg.slowQuery,
	}
	// A recovered server stays "replaying" on /readyz until warmup finishes
	// — its durable history has been applied, but it has not re-earned
	// readiness over the recovered base yet.
	if wlog != nil && startEpoch > 0 {
		srv.replaying.Store(true)
	}
	return srv, nil
}

// walAdapter bridges the materializer's DurableLog to the wal package:
// atoms render as their canonical strings on the way down and parse back
// for WAL-backed delta refreshes.
type walAdapter struct{ log *wal.Log }

func (a walAdapter) Append(b pipeline.MutationBatch) error {
	return a.log.Append(wal.Batch{
		Epoch:   b.Epoch,
		Assert:  atomStrings(b.Assert),
		Retract: atomStrings(b.Retract),
	})
}

// Since reports ok=false on any read failure (compaction included); the
// materializer then falls back to its from-scratch rebuild.
func (a walAdapter) Since(after int64) ([]pipeline.MutationBatch, bool) {
	batches, err := a.log.Since(after)
	if err != nil {
		return nil, false
	}
	out := make([]pipeline.MutationBatch, 0, len(batches))
	for _, b := range batches {
		assert, err := parseFactAtoms(b.Assert)
		if err != nil {
			return nil, false
		}
		retract, err := parseFactAtoms(b.Retract)
		if err != nil {
			return nil, false
		}
		out = append(out, pipeline.MutationBatch{Epoch: b.Epoch, Assert: assert, Retract: retract})
	}
	return out, true
}

func atomStrings(atoms []ast.Atom) []string {
	if len(atoms) == 0 {
		return nil
	}
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}

// recoverBase reconstructs the pre-crash base image: the newest snapshot's
// facts at the snapshot's epoch (or the program file's at epoch 0, when no
// snapshot was ever written) with the committed log tail replayed on top
// through the same engine.Base.Apply live batches go through —
// retractions before assertions, one epoch per batch. The log is dense and
// holds effective batches only, so the replay must land on the log's last
// epoch; anything else means snapshot and log disagree, and startup is
// refused rather than served from a base nobody acknowledged.
func recoverBase(progFacts []ast.Atom, rec *wal.Recovery) (*engine.Base, error) {
	facts, epoch := progFacts, int64(0)
	if rec.Snapshot != nil {
		var err error
		if facts, err = parseFactAtoms(rec.Snapshot.Facts); err != nil {
			return nil, fmt.Errorf("snapshot fact %w", err)
		}
		epoch = rec.Snapshot.Epoch
	}
	base, err := engine.NewBase(facts, epoch)
	if err != nil {
		return nil, err
	}
	for _, b := range rec.Batches {
		retract, err := parseFactAtoms(b.Retract)
		if err != nil {
			return nil, fmt.Errorf("epoch %d retract %w", b.Epoch, err)
		}
		assert, err := parseFactAtoms(b.Assert)
		if err != nil {
			return nil, fmt.Errorf("epoch %d assert %w", b.Epoch, err)
		}
		if _, _, _, err := base.Apply(assert, retract); err != nil {
			return nil, fmt.Errorf("epoch %d: %w", b.Epoch, err)
		}
	}
	if got := base.Current().Epoch(); got != rec.Epoch {
		return nil, fmt.Errorf("replay reached epoch %d, the log ends at %d", got, rec.Epoch)
	}
	return base, nil
}

// Close releases the server's durable resources: it flushes the pending
// group commit and closes the WAL. Safe to call with durability off, and
// idempotent.
func (s *server) Close() error {
	if s.wl == nil {
		return nil
	}
	return s.wl.Close()
}

// beginDrain starts shutdown: /readyz flips not-ready, the admission
// limiter refuses new work, and every in-flight evaluation is canceled
// with cause errDraining so handlers answer a typed 503 instead of holding
// the shutdown timeout hostage.
func (s *server) beginDrain() {
	s.draining.Store(true)
	s.limiter.Close()
	s.evalCancel(errDraining)
}

// warmup compiles a plan for every ?- query declared in the program file
// under the default strategy, so the first real request finds a warm cache.
// Failures are reported, not fatal: a program may declare queries that the
// default strategy cannot transform.
func (s *server) warmup() []string {
	var warns []string
	for _, q := range s.declared {
		if s.defStrategy == pipeline.Auto {
			if _, err := s.planner.Choose(context.Background(), q); err != nil {
				warns = append(warns, fmt.Sprintf("%s: %v", q, err))
			}
			continue
		}
		if _, _, err := s.cache.Lookup(context.Background(), s.prog, s.hash, s.constraints, q, s.defStrategy); err != nil {
			warns = append(warns, fmt.Sprintf("%s: %v", q, err))
		}
	}
	s.replaying.Store(false)
	s.ready.Store(true)
	return warns
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/facts", s.handleFacts)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/trace/", s.handleTrace)
	return mux
}

// queryRequest is the decoded /query input (query-string or JSON body).
type queryRequest struct {
	Query     string `json:"query"`
	Strategy  string `json:"strategy,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Budget    int    `json:"budget,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	// Explain selects plan inspection instead of a plain answer: "plan"
	// describes the compiled plan without evaluating, "analyze" evaluates
	// with tracing forced and returns the measured span tree too.
	Explain string `json:"explain,omitempty"`
	// Stream opts the request into the streaming executor: non-recursive
	// strata run as single-pass iterator pipelines (same answers, different
	// cost shape). The response reports what ran in executor/stream.
	Stream bool `json:"stream,omitempty"`
}

// queryResponse is the /query output.
type queryResponse struct {
	QueryID     string   `json:"query_id"`
	Query       string   `json:"query"`
	Strategy    string   `json:"strategy"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Facts       int      `json:"facts"`
	Inferences  int      `json:"inferences"`
	Iterations  int      `json:"iterations"`
	PlanCache   string   `json:"plan_cache"` // "hit" or "miss"
	EvalWallNS  int64    `json:"eval_wall_ns"`
	TotalWallNS int64    `json:"total_wall_ns"`
	// Epoch is the mutation epoch the answers reflect — the base EDB these
	// answers were computed over is exactly the state after that many
	// effective /facts batches.
	Epoch int64 `json:"epoch"`
	// Materialized is the registry refresh disposition when the query was
	// served from a materialization ("hit", "delta", "rebuild", "build");
	// absent for from-scratch evaluations. RefreshWallNS is the wall time
	// of a non-hit refresh.
	Materialized  string `json:"materialized,omitempty"`
	RefreshWallNS int64  `json:"refresh_wall_ns,omitempty"`
	// Degraded is set when a parallel worker panicked and the answers come
	// from the automatic sequential retry.
	Degraded bool `json:"degraded,omitempty"`
	// Executor names the bottom-up evaluator that ran ("stream" or
	// "materialize"; absent for top-down strategies); Stream carries the
	// streaming counters when it is "stream".
	Executor string            `json:"executor,omitempty"`
	Stream   *obsv.StreamStats `json:"stream,omitempty"`
	// Auto reports the request asked for strategy=auto; Strategy above is
	// then the optimizer's pick. Repicked marks a response whose served plan
	// was just invalidated and re-chosen by shadow re-costing.
	Auto     bool `json:"auto,omitempty"`
	Repicked bool `json:"repicked,omitempty"`
}

type errorResponse struct {
	QueryID string `json:"query_id,omitempty"`
	Error   string `json:"error"`
	// Draining marks the typed 503 body sent while the server shuts down.
	Draining bool `json:"draining,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503 bodies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// planCacheInfo is EXPLAIN's plan-cache disposition: whether this request
// found the plan compiled and how long the compile took (paid by this
// request on a miss, by an earlier one on a hit).
type planCacheInfo struct {
	Disposition   string `json:"disposition"` // "hit" or "miss"
	CompileWallNS int64  `json:"compile_wall_ns"`
}

// explainResponse is the /query output under explain=plan|analyze.
type explainResponse struct {
	QueryID   string                `json:"query_id"`
	Mode      string                `json:"explain"` // "plan" or "analyze"
	Plan      *pipeline.ExplainInfo `json:"plan"`
	PlanCache planCacheInfo         `json:"plan_cache"`
	// Result and Trace are present only for analyze: the evaluated answer
	// and the measured span tree, plus its indented text rendering.
	Result  *queryResponse     `json:"result,omitempty"`
	Trace   *trace.ContextJSON `json:"trace,omitempty"`
	Profile string             `json:"profile,omitempty"`
}

func decodeQueryRequest(w http.ResponseWriter, r *http.Request) (queryRequest, error) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		req.Strategy = q.Get("strategy")
		req.Explain = q.Get("explain")
		for name, dst := range map[string]*int{
			"workers": &req.Workers, "budget": &req.Budget, "timeout_ms": &req.TimeoutMS,
		} {
			if v := q.Get(name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					return req, fmt.Errorf("bad %s: %v", name, err)
				}
				*dst = n
			}
		}
		if v := q.Get("max_bytes"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad max_bytes: %v", err)
			}
			req.MaxBytes = n
		}
		if v := q.Get("stream"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return req, fmt.Errorf("bad stream: %v", err)
			}
			req.Stream = b
		}
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return req, fmt.Errorf("request body exceeds %d bytes: %w", maxQueryBody, err)
			}
			return req, fmt.Errorf("bad JSON body: %v", err)
		}
	default:
		// Unreachable from handleQuery, which rejects other methods with
		// 405 before decoding; kept as a guard for new callers.
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, errors.New("missing query (GET ?q=... or POST {\"query\":...})")
	}
	switch req.Explain {
	case "", "plan", "analyze":
	default:
		return req, fmt.Errorf("bad explain %q (one of: plan, analyze)", req.Explain)
	}
	return req, nil
}

// parseQueryAtom accepts "t(5,Y)" with optional "?-" prefix and trailing
// dot, matching what users paste from .dl files.
func parseQueryAtom(q string) (ast.Atom, error) {
	q = strings.TrimSpace(q)
	q = strings.TrimPrefix(q, "?-")
	q = strings.TrimSuffix(strings.TrimSpace(q), ".")
	return parser.ParseAtom(q)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Every /query response — success, shed, error — carries a server-minted
	// query ID, so one ID follows the request through the error body, the
	// metrics, the slowlog, and /debug/trace/{id}.
	qid := trace.NewID()
	w.Header().Set(queryIDHeader, qid)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.fail(w, qid, "", http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	req, err := decodeQueryRequest(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, qid, "", status, err)
		return
	}
	query, err := parseQueryAtom(req.Query)
	if err != nil {
		s.fail(w, qid, "", http.StatusBadRequest, fmt.Errorf("parse query: %w", err))
		return
	}
	strategy := s.defStrategy
	if req.Strategy != "" {
		if strategy, err = pipeline.ParseStrategy(req.Strategy); err != nil {
			s.fail(w, qid, "", http.StatusBadRequest, err)
			return
		}
	}

	// A draining server refuses new queries outright; anything admitted now
	// would only be canceled moments later.
	if s.draining.Load() {
		s.failDraining(w, qid, strategy.String())
		return
	}

	// The request context bounds the whole evaluation: client disconnects
	// cancel it, the per-request timeout (request override, else server
	// default) adds a deadline, and beginDrain cancels it (via evalCtx) with
	// cause errDraining when shutdown starts.
	ctx := r.Context()
	timeout := s.timeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel func()
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ctx, cancelCause := context.WithCancelCause(ctx)
	defer cancelCause(nil)
	stopDrainWatch := context.AfterFunc(s.evalCtx, func() { cancelCause(errDraining) })
	defer stopDrainWatch()

	opts := s.defOpts
	opts.Context = ctx
	if req.Workers > 0 {
		opts.Workers = req.Workers
	}
	if req.Budget > 0 {
		opts.MaxFacts = req.Budget
	}
	if req.MaxBytes > 0 {
		opts.MaxBytes = req.MaxBytes
	}
	if req.Stream {
		opts.Streaming = engine.StreamAuto
	}

	// Admission: a request weighs its effective worker count, so one
	// 8-worker query consumes as much admission capacity as eight sequential
	// ones. Overload sheds with 429 + Retry-After instead of queueing
	// goroutines without bound.
	weight := int64(opts.Workers)
	release, err := s.limiter.Acquire(ctx, weight)
	if err != nil {
		switch {
		case errors.Is(err, resilience.ErrLimiterClosed):
			s.failDraining(w, qid, strategy.String())
		case errors.Is(err, resilience.ErrQueueWait) && errors.Is(context.Cause(ctx), errDraining):
			s.failDraining(w, qid, strategy.String())
		default:
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			s.observe(strategy.String(), 0, err)
			writeJSON(w, http.StatusTooManyRequests, errorResponse{
				QueryID: qid, Error: err.Error(), RetryAfterSeconds: retryAfterSeconds,
			})
		}
		return
	}
	defer release()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// strategy=auto: the planner resolves the request to a concrete
	// strategy — a remembered decision while its statistics stay fresh, a
	// (shadow re-costed) plan search otherwise. The rest of the handler
	// serves the winner exactly as if the client had asked for it.
	var auto *pipeline.AutoServe
	if strategy == pipeline.Auto {
		auto, err = s.planner.Choose(ctx, query)
		if err != nil {
			s.failEval(w, ctx, qid, pipeline.Auto.String(), compileStatus(err), err)
			return
		}
		strategy = auto.Strategy
		opts.ReorderJoins = auto.Reorder
	}

	// Materialized serving: eligible plain queries answer from the
	// incrementally-maintained registry, which refreshes the entry to the
	// current epoch first (see internal/pipeline.Materializer). EXPLAIN and
	// streaming requests ask about a specific evaluation and always run it.
	if s.matServe && req.Explain == "" && !req.Stream && pipeline.MaterializableStrategy(strategy) {
		mres, err := s.mat.Serve(ctx, query, strategy)
		if err != nil {
			s.failEval(w, ctx, qid, strategy.String(), statusForError(err), err)
			return
		}
		total := time.Since(start)
		s.observe(strategy.String(), total, nil)
		answers := make([]string, 0, len(mres.Answers))
		for a := range mres.Answers {
			answers = append(answers, a)
		}
		sort.Strings(answers)
		writeJSON(w, http.StatusOK, queryResponse{
			QueryID:       qid,
			Query:         query.String(),
			Strategy:      strategy.String(),
			Answers:       answers,
			AnswerCount:   len(answers),
			PlanCache:     cacheLabel(mres.PlanHit),
			EvalWallNS:    mres.RefreshWall.Nanoseconds(),
			TotalWallNS:   total.Nanoseconds(),
			Epoch:         mres.Epoch,
			Materialized:  mres.Kind,
			RefreshWallNS: mres.RefreshWall.Nanoseconds(),
			Auto:          auto != nil,
			Repicked:      auto != nil && auto.Repicked,
		})
		return
	}

	var plan *pipeline.Plan
	var hit bool
	if auto != nil {
		// The planner already holds the winner's compiled plan.
		plan, hit = auto.Plan, auto.PlanHit
	} else {
		plan, hit, err = s.cache.Lookup(ctx, s.prog, s.hash, s.constraints, query, strategy)
		if err != nil {
			s.failEval(w, ctx, qid, strategy.String(), compileStatus(err), err)
			return
		}
	}
	disposition := planCacheInfo{
		Disposition:   cacheLabel(hit),
		CompileWallNS: plan.CompileWall.Nanoseconds(),
	}

	// EXPLAIN (plan): describe the compiled plan without evaluating. An
	// auto-resolved request additionally carries the planner's candidate
	// table.
	if req.Explain == "plan" {
		info, err := plan.Pipeline().Explain(strategy)
		if err != nil {
			s.failEval(w, ctx, qid, strategy.String(), compileStatus(err), err)
			return
		}
		if auto != nil {
			info.Candidates = auto.Candidates
		}
		writeJSON(w, http.StatusOK, explainResponse{
			QueryID: qid, Mode: "plan", Plan: info, PlanCache: disposition,
		})
		return
	}

	// Tracing: EXPLAIN ANALYZE always traces; plain queries trace when the
	// sampler picks them. The Context itself is minted unconditionally (it is
	// one allocation) so a slow untraced query still lands in the slowlog
	// with its ID and wall time; the per-span overhead is gated on Span.
	tc := trace.New(qid)
	// The root span notes the chosen strategy, so a slowlog or trace entry
	// says what plan actually served the query — for auto requests, the
	// optimizer's pick, not "auto".
	tc.Root().SetNote("strategy=" + strategy.String())
	analyze := req.Explain == "analyze"
	sampled := s.sampler.Sample()
	if analyze || sampled {
		opts.Span = tc.Root()
	}

	// A DB per request, the base shared: the request pins the current image
	// version and evaluates over a DB that aliases its frozen relations — no
	// fact is copied, and the response reports exactly the epoch it pinned.
	// Evaluation derives only into relations private to this DB, so one
	// query's derivations never reach the next.
	version := s.mat.Version()
	epoch := version.Epoch()

	res, err := plan.Run(version.EvalDB(), opts)
	if err != nil {
		s.failEval(w, ctx, qid, strategy.String(), statusForError(err), err)
		return
	}

	if res.Degraded {
		s.mu.Lock()
		s.degraded++
		s.mu.Unlock()
	}
	// Calibrate the planner with what the run actually derived, so the next
	// shadow re-cost of this query shape prices against measured rows.
	if auto != nil && len(res.Rules) > 0 {
		s.planner.Observe(query, res.Program, res.Rules)
	}
	total := time.Since(start)
	tc.Finish()
	s.recordTrace(tc, opts.Span != nil, total)
	s.observeResult(strategy.String(), total, res)
	resp := queryResponse{
		QueryID:     qid,
		Query:       query.String(),
		Strategy:    strategy.String(),
		Answers:     pipeline.SortedAnswers(res),
		AnswerCount: len(res.Answers),
		Facts:       res.Facts,
		Inferences:  res.Inferences,
		Iterations:  res.Iterations,
		PlanCache:   disposition.Disposition,
		EvalWallNS:  res.EvalWall.Nanoseconds(),
		TotalWallNS: total.Nanoseconds(),
		Epoch:       epoch,
		Degraded:    res.Degraded,
		Executor:    res.Executor,
		Stream:      res.Stream,
		Auto:        auto != nil,
		Repicked:    auto != nil && auto.Repicked,
	}
	if analyze {
		info, err := plan.Pipeline().Explain(strategy)
		if err != nil {
			s.failEval(w, ctx, qid, strategy.String(), compileStatus(err), err)
			return
		}
		if auto != nil {
			info.Candidates = auto.Candidates
		}
		snap := tc.Snapshot()
		writeJSON(w, http.StatusOK, explainResponse{
			QueryID:   qid,
			Mode:      "analyze",
			Plan:      info,
			PlanCache: disposition,
			Result:    &resp,
			Trace:     &snap,
			Profile:   tc.Profile(),
		})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxFactsBody caps a POST /facts body. Batches are lists of ground atoms;
// 4 MiB holds ~100k short facts, past which clients should chunk anyway so
// a failure doesn't void the whole load.
const maxFactsBody = 4 << 20

// factsRequest is the /facts input: facts to assert and retract, each a
// ground atom with optional trailing dot ("e(1,2)." or "e(1,2)").
type factsRequest struct {
	Assert  []string `json:"assert,omitempty"`
	Retract []string `json:"retract,omitempty"`
}

// factsResponse reports one applied batch.
type factsResponse struct {
	// Epoch is the mutation epoch after the batch; an all-noop batch
	// leaves it unchanged.
	Epoch int64 `json:"epoch"`
	// Asserted/Retracted count effective changes; Noop* count entries
	// that changed nothing.
	Asserted     int `json:"asserted"`
	Retracted    int `json:"retracted"`
	NoopAsserts  int `json:"noop_asserts,omitempty"`
	NoopRetracts int `json:"noop_retracts,omitempty"`
	// BaseFacts is the live base-EDB size after the batch.
	BaseFacts int `json:"base_facts"`
}

// handleFacts is the mutation endpoint: POST a batch of asserts/retracts,
// get back the epoch it produced. The batch is atomic — validation errors
// (non-ground atoms, arity mismatches) reject it whole with 422 and no
// state change. Mutations pass admission at weight 1: they are quick, but
// an overloaded server should shed them like any other work. With
// durability on, the batch reaches the WAL (fsynced per the group-commit
// policy) before the 200 — an acknowledged epoch survives a crash.
//
// GET /facts?since=E streams the committed batch log after epoch E — the
// replica-tailing read (see docs/DURABILITY.md).
func (s *server) handleFacts(w http.ResponseWriter, r *http.Request) {
	qid := trace.NewID()
	w.Header().Set(queryIDHeader, qid)
	switch r.Method {
	case http.MethodGet:
		s.handleFactsTail(w, r, qid)
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		s.fail(w, qid, "", http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if s.draining.Load() {
		s.failDraining(w, qid, "")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxFactsBody)
	var req factsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, qid, "", http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes: %w", maxFactsBody, err))
			return
		}
		s.fail(w, qid, "", http.StatusBadRequest, fmt.Errorf("bad JSON body: %v", err))
		return
	}
	if len(req.Assert)+len(req.Retract) == 0 {
		s.fail(w, qid, "", http.StatusBadRequest, errors.New("empty batch (assert and/or retract required)"))
		return
	}
	assert, err := parseFactAtoms(req.Assert)
	if err != nil {
		s.fail(w, qid, "", http.StatusBadRequest, fmt.Errorf("assert: %w", err))
		return
	}
	retract, err := parseFactAtoms(req.Retract)
	if err != nil {
		s.fail(w, qid, "", http.StatusBadRequest, fmt.Errorf("retract: %w", err))
		return
	}

	release, err := s.limiter.Acquire(r.Context(), 1)
	if err != nil {
		if errors.Is(err, resilience.ErrLimiterClosed) {
			s.failDraining(w, qid, "")
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			QueryID: qid, Error: err.Error(), RetryAfterSeconds: retryAfterSeconds,
		})
		return
	}
	defer release()

	res, err := s.mat.Apply(assert, retract)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrMutation) {
			status = http.StatusUnprocessableEntity
		}
		s.fail(w, qid, "", status, err)
		return
	}
	writeJSON(w, http.StatusOK, factsResponse{
		Epoch:        res.Epoch,
		Asserted:     res.Asserted,
		Retracted:    res.Retracted,
		NoopAsserts:  res.NoopAsserts,
		NoopRetracts: res.NoopRetracts,
		BaseFacts:    s.mat.BaseCount(),
	})
	if res.Asserted+res.Retracted > 0 {
		s.maybeSnapshot()
	}
}

// maybeSnapshot writes a base snapshot when the epoch has advanced
// snapshotEvery past the last one; retention then prunes log segments the
// snapshot supersedes. Failures are not fatal — the log alone remains
// authoritative and the next batch retries.
func (s *server) maybeSnapshot() {
	if s.wl == nil || s.snapshotEvery <= 0 {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.mat.Epoch()-s.wl.SnapshotEpoch() < s.snapshotEvery {
		return
	}
	version := s.mat.Version()
	err := s.wl.WriteSnapshot(wal.Snapshot{
		Epoch:       version.Epoch(),
		ProgramHash: s.hash,
		Facts:       version.FactStrings(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "factorlogd: snapshot:", err)
	}
}

// maxTailBatches caps one GET /facts?since=E response; a replica further
// behind follows the "more" marker with another request from the last
// epoch it received.
const maxTailBatches = 1024

// factsTailResponse is the GET /facts?since=E output: the committed
// batches with epochs in (since, epoch], oldest first.
type factsTailResponse struct {
	Since int64 `json:"since"`
	// Epoch is the WAL's committed epoch at read time; a response whose
	// last batch reaches it has caught the replica up.
	Epoch   int64       `json:"epoch"`
	Batches []wal.Batch `json:"batches"`
	// More marks a truncated response (maxTailBatches); follow up with
	// since = the last returned epoch.
	More bool `json:"more,omitempty"`
}

// handleFactsTail serves the committed batch log for replicas. Compacted
// history answers 410 Gone with the first epoch still available, telling
// the replica to bootstrap from a snapshot instead.
func (s *server) handleFactsTail(w http.ResponseWriter, r *http.Request, qid string) {
	if s.wl == nil {
		s.fail(w, qid, "", http.StatusBadRequest, errors.New("durable log disabled (start with -wal-dir to tail /facts)"))
		return
	}
	sinceStr := r.URL.Query().Get("since")
	if sinceStr == "" {
		s.fail(w, qid, "", http.StatusBadRequest, errors.New("missing since (GET /facts?since=E)"))
		return
	}
	since, err := strconv.ParseInt(sinceStr, 10, 64)
	if err != nil || since < 0 {
		s.fail(w, qid, "", http.StatusBadRequest, fmt.Errorf("bad since %q: want a non-negative epoch", sinceStr))
		return
	}
	batches, err := s.wl.Since(since)
	if err != nil {
		if errors.Is(err, wal.ErrCompacted) {
			first, _ := s.wl.FirstAvailable()
			writeJSON(w, http.StatusGone, map[string]any{
				"error":                 err.Error(),
				"first_available_epoch": first,
				"last_snapshot_epoch":   s.wl.SnapshotEpoch(),
			})
			return
		}
		s.fail(w, qid, "", http.StatusInternalServerError, err)
		return
	}
	resp := factsTailResponse{Since: since, Epoch: s.wl.Epoch()}
	if len(batches) > maxTailBatches {
		batches, resp.More = batches[:maxTailBatches], true
	}
	if batches == nil {
		batches = []wal.Batch{}
	}
	resp.Batches = batches
	writeJSON(w, http.StatusOK, resp)
}

// parseFactAtoms parses mutation atoms, tolerating the trailing dot of
// .dl-file fact syntax.
func parseFactAtoms(in []string) ([]ast.Atom, error) {
	out := make([]ast.Atom, 0, len(in))
	for _, f := range in {
		a, err := parser.ParseAtom(strings.TrimSuffix(strings.TrimSpace(f), "."))
		if err != nil {
			return nil, fmt.Errorf("%q: %w", f, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// recordTrace publishes a finished trace: traced queries land in the
// sampled-trace ring, slow queries (traced or not) in the slowlog.
func (s *server) recordTrace(tc *trace.Context, traced bool, total time.Duration) {
	slow := s.slowThreshold > 0 && total >= s.slowThreshold
	if traced {
		s.traces.Add(tc)
	}
	if slow {
		s.slowlog.Add(tc)
	}
	if traced || slow {
		s.mu.Lock()
		if traced {
			s.traced++
		}
		if slow {
			s.slowSeen++
		}
		s.mu.Unlock()
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func statusForError(err error) int {
	switch {
	case errors.Is(err, pipeline.ErrAutoUnsupported):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, engine.ErrCanceled):
		return statusClientClosedRequest
	case errors.Is(err, engine.ErrBudgetExceeded), errors.Is(err, engine.ErrMemoryBudget):
		return http.StatusUnprocessableEntity
	case errors.Is(err, engine.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// compileStatus maps plan-compile failures: the engine's typed transient
// errors keep their statusForError mapping, while permanent refutations
// (non-factorable program, bad adornment) are the client's problem — 422.
func compileStatus(err error) int {
	status := statusForError(err)
	if status == http.StatusInternalServerError && !errors.Is(err, engine.ErrInternal) {
		status = http.StatusUnprocessableEntity
	}
	return status
}

// fail records an errored query (when it reached evaluation, strategy is
// set) and writes the error response, query ID included.
func (s *server) fail(w http.ResponseWriter, qid, strategy string, status int, err error) {
	s.observe(strategy, 0, err)
	writeJSON(w, status, errorResponse{QueryID: qid, Error: err.Error()})
}

// failEval handles compile/evaluation failures: a cancellation caused by
// shutdown becomes the typed draining 503 (the client did nothing wrong and
// should retry elsewhere); everything else keeps its mapped status. Panic
// and memory-budget failures feed the resilience counters.
func (s *server) failEval(w http.ResponseWriter, ctx context.Context, qid, strategy string, status int, err error) {
	if errors.Is(err, engine.ErrCanceled) && errors.Is(context.Cause(ctx), errDraining) {
		s.failDraining(w, qid, strategy)
		return
	}
	s.mu.Lock()
	if errors.Is(err, engine.ErrInternal) {
		s.panics++
	}
	if errors.Is(err, engine.ErrMemoryBudget) {
		s.memStops++
	}
	s.mu.Unlock()
	s.fail(w, qid, strategy, status, err)
}

// failDraining writes the typed 503 shutdown response.
func (s *server) failDraining(w http.ResponseWriter, qid, strategy string) {
	s.mu.Lock()
	s.drained++
	s.mu.Unlock()
	s.observe(strategy, 0, errDraining)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		QueryID: qid, Error: errDraining.Error(), Draining: true, RetryAfterSeconds: retryAfterSeconds,
	})
}

// observe folds one finished request into the metrics; latency is recorded
// only for successful evaluations so the histograms measure real query
// cost, not fast-path rejections.
func (s *server) observe(strategy string, d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	if err != nil {
		s.errors++
		return
	}
	h := s.latency[strategy]
	if h == nil {
		h = obsv.NewHistogram()
		s.latency[strategy] = h
	}
	h.Observe(d)
}

// observeResult folds one successful evaluation into the metrics: the
// latency histogram, the rounds and storage-footprint histograms, and the
// storage high-water record (replaced whole, so the reported load factors
// describe the same evaluation as the bytes).
func (s *server) observeResult(strategy string, total time.Duration, res *pipeline.RunResult) {
	s.observe(strategy, total, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds.Observe(float64(res.Iterations))
	s.arena.Observe(float64(res.Storage.ArenaBytes + res.Storage.IndexBytes))
	if res.Storage.ArenaBytes+res.Storage.IndexBytes > s.storageHW.ArenaBytes+s.storageHW.IndexBytes {
		s.storageHW = res.Storage
	}
}

// handleHealthz is pure liveness: the process is up and can answer HTTP.
// It stays 200 during drain — restarting a deliberately-draining process
// because its health check "failed" would defeat graceful shutdown. Routing
// decisions belong to /readyz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"program_hash":   s.hash,
		"rules":          len(s.prog.Rules),
		"base_facts":     s.mat.BaseCount(),
		"epoch":          s.mat.Epoch(),
		"durable":        s.wl != nil,
	}
	if s.wl != nil {
		body["wal_epoch"] = s.wl.Epoch()
		body["last_snapshot_epoch"] = s.wl.SnapshotEpoch()
		body["replaying"] = s.replaying.Load()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness: 200 only after warmup has filled the plan
// cache and before drain begins, so load balancers stop routing here the
// moment shutdown starts. A server still replaying its WAL tail is not
// ready either — its base has not yet caught up to the pre-crash epoch.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "ready": false,
		})
	case s.replaying.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "replaying", "ready": false,
		})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "warming up", "ready": false,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "ready": true,
		})
	}
}

// snapshot builds the ServerStats document under the metrics lock,
// deep-copying the histograms so rendering happens outside it.
func (s *server) snapshot() obsv.ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	latency := make(map[string]*obsv.Histogram, len(s.latency))
	for name, h := range s.latency {
		cp := *h
		cp.Bounds = append([]time.Duration(nil), h.Bounds...)
		cp.BucketCounts = append([]int64(nil), h.BucketCounts...)
		latency[name] = &cp
	}
	rounds := *s.rounds
	rounds.Bounds = append([]float64(nil), s.rounds.Bounds...)
	rounds.BucketCounts = append([]int64(nil), s.rounds.BucketCounts...)
	arena := *s.arena
	arena.Bounds = append([]float64(nil), s.arena.Bounds...)
	arena.BucketCounts = append([]int64(nil), s.arena.BucketCounts...)
	return obsv.ServerStats{
		Schema:           obsv.MetricsSchema,
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Queries:          s.queries,
		Errors:           s.errors,
		InFlight:         s.inflight.Load(),
		PlanCache:        s.cache.Stats(),
		Latency:          latency,
		Rounds:           &rounds,
		ArenaBytes:       &arena,
		SlowQueries:      s.slowSeen,
		TracedQueries:    s.traced,
		StorageHighWater: s.storageHW,
		Resilience: obsv.ResilienceStats{
			Admission:         s.limiter.Stats(),
			Panics:            s.panics,
			Degraded:          s.degraded,
			MemoryBudgetStops: s.memStops,
			Drained:           s.drained,
		},
		Mutation:   s.mat.Stats(),
		PlanSearch: s.planner.Stats(),
		Durability: s.durabilityStats(),
	}
}

// durabilityStats snapshots the WAL counters; with durability off it is
// the zero block (enabled:false), keeping the schema shape stable.
func (s *server) durabilityStats() obsv.DurabilityStats {
	if s.wl == nil {
		return obsv.DurabilityStats{}
	}
	return s.wl.Stats()
}

// handleMetrics serves Prometheus text exposition by default (what scrapers
// expect of a /metrics endpoint); ?format=json keeps the structured
// obsv.MetricsSchema document and ?format=text the human-readable table.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stats := s.snapshot()
	switch r.URL.Query().Get("format") {
	case "", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, obsv.PromExposition(stats))
	case "json":
		writeJSON(w, http.StatusOK, stats)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obsv.ServerTable(stats))
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("bad format %q (one of: prometheus, json, text)", r.URL.Query().Get("format")),
		})
	}
}

// handleSlowlog returns the recent slow queries, newest first, as finished
// trace snapshots (untraced slow queries appear with just their root span).
func (s *server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	recent := s.slowlog.Recent()
	traces := make([]trace.ContextJSON, 0, len(recent))
	for _, tc := range recent {
		traces = append(traces, tc.Snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": s.slowThreshold.Milliseconds(),
		"total":        s.slowlog.Total(),
		"traces":       traces,
	})
}

// handleTrace serves one finished trace by query ID: sampled traces first,
// then the slowlog (a slow untraced query lives only there).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing trace id (/debug/trace/{id})"})
		return
	}
	tc := s.traces.Get(id)
	if tc == nil {
		tc = s.slowlog.Get(id)
	}
	if tc == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no trace %q (sampled traces and slow queries are kept for the last %d each)", id, traceRingSize)})
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tc.Profile())
		return
	}
	writeJSON(w, http.StatusOK, tc.Snapshot())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
