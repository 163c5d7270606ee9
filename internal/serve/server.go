// Package serve is factorlogd's request path (see cmd/factorlogd for the
// endpoints): Server.Query and Server.Facts turn requests into answers and
// epochs, and the HTTP handlers around them only decode requests and map
// the typed errors to statuses (Status).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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

// traceRingSize bounds the sampled-trace store and the slow-query log; both
// are debugging windows into recent traffic, not durable archives.
const traceRingSize = 64

// Config holds one field per factorlogd serving flag.
type Config struct {
	Strategy string
	Workers  int
	Budget   int
	Timeout  time.Duration
	// MaxBytes caps each evaluation's arena+index footprint
	// (engine.Options.MaxBytes); 0 = unlimited.
	MaxBytes int64
	// MaxConcurrency is the admission limiter's capacity in weight units
	// (one unit per evaluation worker); <= 0 derives a default from Workers.
	MaxConcurrency int64
	// MaxQueue bounds the admission wait queue; beyond it requests are shed
	// with 429.
	MaxQueue int
	// TraceSample traces one query in every N (0 = only EXPLAIN ANALYZE
	// queries are traced, 1 = all).
	TraceSample int
	// SlowQuery is the slow-query-log threshold; queries whose total wall
	// time meets it land in /debug/slowlog. 0 disables the log.
	SlowQuery time.Duration
	// Materialize serves eligible queries from incrementally-maintained
	// materializations instead of evaluating from scratch. /facts mutation
	// works either way; this only selects the query serving path.
	Materialize bool
	// MatEntries bounds the materialization registry (LRU past it);
	// <= 0 uses the registry default.
	MatEntries int
	// WALDir enables the durable write-ahead log: every committed /facts
	// batch is logged there before it is acknowledged, and startup replays
	// the newest snapshot plus the log tail. Empty disables durability.
	WALDir string
	// FsyncInterval is the WAL group-commit window (0 = fsync every batch
	// before acknowledging it).
	FsyncInterval time.Duration
	// SnapshotEvery writes a base snapshot after this many epochs since the
	// last one (<= 0 disables periodic snapshots; retention then never
	// prunes log segments).
	SnapshotEvery int64
	// WALSegmentBytes overrides the WAL segment rotation size (0 = the wal
	// package default). Not exposed as a flag; tests shrink it to exercise
	// rotation and retention without megabytes of batches.
	WALSegmentBytes int64
}

// limiterCapacity derives the admission capacity: explicit when configured,
// otherwise enough weight for 8 default-shaped queries to run concurrently
// (each query weighs its effective worker count).
func (c Config) limiterCapacity() int64 {
	if c.MaxConcurrency > 0 {
		return c.MaxConcurrency
	}
	w := int64(c.Workers)
	if w < 1 {
		w = 1
	}
	return 8 * w
}

// Server holds the immutable program state shared by all requests and the
// mutable serving metrics.
type Server struct {
	Program     *ast.Program
	hash        string
	constraints []ast.Rule
	declared    []ast.Atom // ?- queries from the program file, warmed at startup

	// Mat owns the base image (the program file's facts plus every /facts
	// batch since, as one versioned engine.Base) and the materialization
	// registry. All serving paths read the base through it; matServe selects
	// whether eligible queries answer from materializations or evaluate from
	// scratch over the current version.
	Mat      *pipeline.Materializer
	matServe bool

	// WAL is the durable write-ahead log (nil when WALDir is unset). The
	// materializer appends every committed batch before acknowledging it;
	// snapMu serializes periodic base snapshots, written after the epoch
	// advances snapshotEvery past the last one. replaying is true while
	// startup applies the recovered snapshot + log tail; /readyz answers
	// 503 until it clears.
	WAL           *wal.Log
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

	// Limiter is the admission gate; each query acquires weight equal to
	// its effective worker count before touching the evaluator, each
	// mutation batch weight 1.
	Limiter *resilience.Limiter

	// ready flips true once warmup finishes; draining flips true when
	// shutdown begins. /readyz reports ready && !draining.
	ready    atomic.Bool
	draining atomic.Bool
	// evalCtx is canceled (cause ErrDraining) by BeginDrain, aborting every
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

	InFlight  atomic.Int64 // queries past admission
	mu        sync.Mutex   // guards the obsv records below
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

// New parses the program (and full-TGD constraints, if any), opens and
// recovers the write-ahead log when cfg.WALDir is set, and returns a
// Server that is live but not yet ready: call Warmup before routing to it.
func New(src, constraints string, cfg Config) (*Server, error) {
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
	strategy, err := pipeline.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	prog := u.Program()
	hash := pipeline.HashProgram(prog, tgds)
	cache := pipeline.NewPlanCache()

	base, wlog, durable, err := openBase(u.Facts, hash, cfg)
	if err != nil {
		return nil, err
	}
	startEpoch := base.Current().Epoch()

	mat, err := pipeline.NewMaterializerOn(prog, tgds, base, cache,
		pipeline.MaterializerOptions{
			Entries: cfg.MatEntries,
			Durable: durable,
			Engine: engine.MaterializeOptions{
				MaxFacts: cfg.Budget,
				MaxBytes: cfg.MaxBytes,
			},
		})
	if err != nil {
		if wlog != nil {
			wlog.Close()
		}
		return nil, err
	}
	evalCtx, evalCancel := context.WithCancelCause(context.Background())
	srv := &Server{
		Program:       prog,
		hash:          hash,
		constraints:   tgds,
		declared:      u.Queries,
		Mat:           mat,
		matServe:      cfg.Materialize,
		WAL:           wlog,
		snapshotEvery: cfg.SnapshotEvery,
		cache:         cache,
		planner: pipeline.NewAutoPlanner(prog, tgds, cache,
			pipeline.SnapshotSource(mat), pipeline.AutoPolicy{}),
		defStrategy: strategy,
		defOpts: engine.Options{
			Workers:  cfg.Workers,
			MaxFacts: cfg.Budget,
			MaxBytes: cfg.MaxBytes,
		},
		timeout:       cfg.Timeout,
		start:         time.Now(),
		Limiter:       resilience.NewLimiter(cfg.limiterCapacity(), cfg.MaxQueue),
		evalCtx:       evalCtx,
		evalCancel:    evalCancel,
		latency:       map[string]*obsv.Histogram{},
		rounds:        obsv.NewValueHistogram(obsv.RoundsBucketBounds),
		arena:         obsv.NewValueHistogram(obsv.ArenaBucketBounds),
		sampler:       trace.NewSampler(cfg.TraceSample),
		traces:        trace.NewRing(traceRingSize),
		slowlog:       trace.NewRing(traceRingSize),
		slowThreshold: cfg.SlowQuery,
	}
	// A recovered server stays "replaying" on /readyz until warmup finishes
	// — its durable history has been applied, but it has not re-earned
	// readiness over the recovered base yet.
	if wlog != nil && startEpoch > 0 {
		srv.replaying.Store(true)
	}
	return srv, nil
}

// Close releases the server's durable resources: it flushes the pending
// group commit and closes the WAL. Safe to call with durability off, and
// idempotent.
func (s *Server) Close() error {
	if s.WAL == nil {
		return nil
	}
	return s.WAL.Close()
}

// BeginDrain starts shutdown: /readyz flips not-ready, the admission
// limiter refuses new work, and every in-flight evaluation is canceled
// with cause ErrDraining so it fails with the typed draining error instead
// of holding the shutdown timeout hostage.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.Limiter.Close()
	s.evalCancel(ErrDraining)
}

// Warmup compiles a plan for every ?- query declared in the program file
// under the default strategy, so the first real request finds a warm cache,
// then marks the server ready. Failures are reported, not fatal: a program
// may declare queries that the default strategy cannot transform.
func (s *Server) Warmup() []string {
	var warns []string
	for _, q := range s.declared {
		var err error
		if s.defStrategy == pipeline.Auto {
			_, err = s.planner.Choose(context.Background(), q)
		} else {
			_, _, err = s.cache.Lookup(context.Background(), s.Program, s.hash, s.constraints, q, s.defStrategy)
		}
		if err != nil {
			warns = append(warns, fmt.Sprintf("%s: %v", q, err))
		}
	}
	s.replaying.Store(false)
	s.ready.Store(true)
	return warns
}

// Handler routes the server's HTTP endpoints.
func (s *Server) Handler() http.Handler {
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Query and Facts fail with errors Status maps to one HTTP status each:
// the engine's, the planner's and the limiter's typed errors, plus the
// request-level ones below. Test with errors.Is.
var (
	// ErrBadRequest marks a malformed request: undecodable input, a query
	// or fact that does not parse, an unknown strategy or explain mode.
	ErrBadRequest = errors.New("bad request")
	// ErrMethodNotAllowed marks a request with an HTTP method the endpoint
	// does not serve.
	ErrMethodNotAllowed = errors.New("method not allowed")
	// ErrCompile marks a plan-compile failure. The engine's typed transient
	// errors keep their own status; an untyped cause is a permanent
	// refutation (a non-factorable program, a bad adornment) — the
	// client's problem, not the server's.
	ErrCompile = errors.New("plan compile failed")
	// ErrDraining is the shutdown refusal: new work is turned away and
	// in-flight evaluations are canceled with it as their cause.
	ErrDraining = errors.New("server draining")
)

// retryAfterSeconds is the Retry-After hint on 429 (shed/queue-timeout) and
// 503 (draining) responses. Queries are short; one second is enough for the
// limiter to turn over without clients hammering the queue.
const retryAfterSeconds = 1

// statusClientClosedRequest is the de-facto code (nginx) for "the client
// went away before we could answer"; no standard code fits.
const statusClientClosedRequest = 499

// markedError tags err with a request-level sentinel without changing its
// message.
type markedError struct{ kind, err error }

func (e *markedError) Error() string   { return e.err.Error() }
func (e *markedError) Unwrap() []error { return []error{e.kind, e.err} }

func badRequest(err error) error    { return &markedError{ErrBadRequest, err} }
func compileFailed(err error) error { return &markedError{ErrCompile, err} }

// Status maps an error from Query or Facts (or the HTTP decoding around
// them) to its HTTP status.
func Status(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrMethodNotAllowed):
		return http.StatusMethodNotAllowed
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest), errors.Is(err, pipeline.ErrAutoUnsupported),
		errors.Is(err, engine.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, ErrDraining), errors.Is(err, resilience.ErrLimiterClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, resilience.ErrShed), errors.Is(err, resilience.ErrQueueWait):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, engine.ErrCanceled):
		return statusClientClosedRequest
	case errors.Is(err, engine.ErrBudgetExceeded), errors.Is(err, engine.ErrMemoryBudget),
		errors.Is(err, engine.ErrMutation):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrCompile) && !errors.Is(err, engine.ErrInternal):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// drainCause reports a cancellation or queue wait that shutdown caused as
// ErrDraining: the client did nothing wrong and should retry elsewhere.
func drainCause(ctx context.Context, err error) error {
	if (errors.Is(err, engine.ErrCanceled) || errors.Is(err, resilience.ErrQueueWait)) &&
		errors.Is(context.Cause(ctx), ErrDraining) {
		return ErrDraining
	}
	return err
}

// ErrorResponse is the body of every /query and /facts failure.
type ErrorResponse struct {
	QueryID string `json:"query_id,omitempty"`
	Error   string `json:"error"`
	// Draining marks the typed 503 body sent while the server shuts down.
	Draining bool `json:"draining,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503 bodies.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// writeError writes err's status and typed body, query ID included.
func writeError(w http.ResponseWriter, qid string, err error) {
	status := Status(err)
	body := ErrorResponse{QueryID: qid, Error: err.Error()}
	switch status {
	case http.StatusMethodNotAllowed:
		w.Header().Set("Allow", "GET, POST")
	case http.StatusServiceUnavailable:
		body.Error, body.Draining = ErrDraining.Error(), true
		fallthrough
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		body.RetryAfterSeconds = retryAfterSeconds
	}
	writeJSON(w, status, body)
}
