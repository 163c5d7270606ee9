package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/trace"
)

// MaxQueryBody caps a POST /query body; a query request is a few hundred
// bytes of JSON, so 1 MiB is generous while keeping arbitrary clients from
// streaming unbounded input into the decoder.
const MaxQueryBody = 1 << 20

// QueryIDHeader carries the server-minted query ID on every /query and
// /facts response (success and failure alike), so clients can correlate an
// answer, an error, a slowlog entry, and a /debug/trace/{id} lookup.
const QueryIDHeader = "X-Factorlog-Query-ID"

// Request is one query: the decoded /query input (query string or JSON
// body), or an in-process caller's.
type Request struct {
	// ID names the query in its response, trace and slowlog entry; empty
	// mints one.
	ID        string `json:"-"`
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
	// Stream opts the request into the stratified schedule: the program is
	// evaluated stratum by stratum, non-recursive strata in one pass (same
	// answers, different cost shape). The response reports what ran in
	// executor/stream.
	Stream bool `json:"stream,omitempty"`
}

// Response is one answered query, encoded as the /query body unless
// Explain is set.
type Response struct {
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
	// Explain is set under explain=plan|analyze and is the /query body
	// then; under analyze its Result is this response.
	Explain *ExplainResponse `json:"-"`
}

// PlanCacheInfo is EXPLAIN's plan-cache disposition: whether this request
// found the plan compiled and how long the compile took (paid by this
// request on a miss, by an earlier one on a hit).
type PlanCacheInfo struct {
	Disposition   string `json:"disposition"` // "hit" or "miss"
	CompileWallNS int64  `json:"compile_wall_ns"`
}

// ExplainResponse is the /query output under explain=plan|analyze.
type ExplainResponse struct {
	QueryID   string                `json:"query_id"`
	Mode      string                `json:"explain"` // "plan" or "analyze"
	Plan      *pipeline.ExplainInfo `json:"plan"`
	PlanCache PlanCacheInfo         `json:"plan_cache"`
	// Result and Trace are present only for analyze: the evaluated answer
	// and the measured span tree, plus its indented text rendering.
	Result  *Response          `json:"result,omitempty"`
	Trace   *trace.ContextJSON `json:"trace,omitempty"`
	Profile string             `json:"profile,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Every /query response — success, shed, error — carries a server-minted
	// query ID, so one ID follows the request through the error body, the
	// metrics, the slowlog, and /debug/trace/{id}.
	qid := trace.NewID()
	w.Header().Set(QueryIDHeader, qid)
	req, err := decodeQuery(w, r)
	if err != nil {
		s.observe("", 0, err)
		writeError(w, qid, err)
		return
	}
	req.ID = qid
	resp, err := s.Query(r.Context(), req)
	if err != nil {
		writeError(w, qid, err)
		return
	}
	if resp.Explain != nil {
		writeJSON(w, http.StatusOK, resp.Explain)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeQuery reads a GET query string or a POST JSON body.
func decodeQuery(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		req.Strategy = q.Get("strategy")
		req.Explain = q.Get("explain")
		for name, dst := range map[string]any{
			"workers": &req.Workers, "budget": &req.Budget, "timeout_ms": &req.TimeoutMS,
			"max_bytes": &req.MaxBytes, "stream": &req.Stream,
		} {
			v := q.Get(name)
			if v == "" {
				continue
			}
			var err error
			switch dst := dst.(type) {
			case *int:
				*dst, err = strconv.Atoi(v)
			case *int64:
				*dst, err = strconv.ParseInt(v, 10, 64)
			case *bool:
				*dst, err = strconv.ParseBool(v)
			}
			if err != nil {
				return req, badRequest(fmt.Errorf("bad %s: %v", name, err))
			}
		}
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, MaxQueryBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, decodeBodyError(err, MaxQueryBody)
		}
	default:
		return req, methodNotAllowed(r.Method)
	}
	return req, nil
}

func methodNotAllowed(method string) error {
	return &markedError{ErrMethodNotAllowed, fmt.Errorf("method %s not allowed", method)}
}

// decodeBodyError types a JSON body decode failure: 413 past the body cap,
// 400 otherwise.
func decodeBodyError(err error, limit int) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("request body exceeds %d bytes: %w", limit, err)
	}
	return badRequest(fmt.Errorf("bad JSON body: %v", err))
}

// parseQueryAtom accepts "t(5,Y)" with optional "?-" prefix and trailing
// dot, matching what users paste from .dl files.
func parseQueryAtom(q string) (ast.Atom, error) {
	q = strings.TrimSpace(q)
	q = strings.TrimPrefix(q, "?-")
	q = strings.TrimSuffix(strings.TrimSpace(q), ".")
	return parser.ParseAtom(q)
}

// Query answers one request: it admits it, resolves its plan (the auto
// planner's pick, the plan cache, or a materialization), serves it, and
// folds the outcome into the server's metrics. Failures are typed; Status
// maps them to HTTP statuses.
func (s *Server) Query(ctx context.Context, req Request) (resp Response, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			s.observe("", 0, err)
		}
	}()
	if req.ID == "" {
		req.ID = trace.NewID()
	}
	if strings.TrimSpace(req.Query) == "" {
		return resp, badRequest(errors.New("missing query (GET ?q=... or POST {\"query\":...})"))
	}
	switch req.Explain {
	case "", "plan", "analyze":
	default:
		return resp, badRequest(fmt.Errorf("bad explain %q (one of: plan, analyze)", req.Explain))
	}
	query, err := parseQueryAtom(req.Query)
	if err != nil {
		return resp, badRequest(fmt.Errorf("parse query: %w", err))
	}
	strategy := s.defStrategy
	if req.Strategy != "" {
		if strategy, err = pipeline.ParseStrategy(req.Strategy); err != nil {
			return resp, badRequest(err)
		}
	}

	// The request context bounds the whole evaluation: client disconnects
	// cancel it, the per-request timeout (request override, else server
	// default) adds a deadline, and BeginDrain cancels it (via evalCtx) with
	// cause ErrDraining when shutdown starts.
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
	stopDrainWatch := context.AfterFunc(s.evalCtx, func() { cancelCause(ErrDraining) })
	defer stopDrainWatch()
	defer func() { err = drainCause(ctx, err) }()

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
	// ones. Overload sheds with ErrShed instead of queueing goroutines
	// without bound; a draining server's closed limiter refuses everything.
	release, err := s.Limiter.Acquire(ctx, int64(opts.Workers))
	if err != nil {
		return resp, err
	}
	defer release()
	s.InFlight.Add(1)
	defer s.InFlight.Add(-1)

	// strategy=auto: the planner resolves the request to a concrete
	// strategy — a remembered decision while its statistics stay fresh, a
	// (shadow re-costed) plan search otherwise — and holds the winner's
	// compiled plan. The rest serves the winner exactly as if the client
	// had asked for it.
	var auto *pipeline.AutoServe
	if strategy == pipeline.Auto {
		if auto, err = s.planner.Choose(ctx, query); err != nil {
			return resp, compileFailed(err)
		}
		strategy = auto.Strategy
		opts.ReorderJoins = auto.Reorder
	}

	// Every query gets a trace context, so a slow one lands in the slowlog
	// with its ID and wall time whichever way it was served; EXPLAIN
	// ANALYZE and sampled queries also record spans.
	tc := trace.New(req.ID)
	analyze := req.Explain == "analyze"
	traced := analyze || req.Explain == "" && s.sampler.Sample()
	if traced {
		opts.Span = tc.Root()
	}
	resp = Response{
		QueryID:  req.ID,
		Query:    query.String(),
		Strategy: strategy.String(),
		Auto:     auto != nil,
		Repicked: auto != nil && auto.Repicked,
	}

	var res pipeline.RunResult
	if s.matServe && req.Explain == "" && !req.Stream && pipeline.MaterializableStrategy(strategy) {
		// Materialized serving: eligible plain queries answer from the
		// incrementally-maintained registry, which refreshes the entry to
		// the current epoch first (see internal/pipeline.Materializer).
		// EXPLAIN and streaming requests ask about a specific evaluation
		// and always run it.
		mres, err := s.Mat.Serve(ctx, query, strategy)
		if err != nil {
			return resp, err
		}
		res.Answers, res.EvalWall = mres.Answers, mres.RefreshWall
		resp.PlanCache, resp.Epoch = cacheLabel(mres.PlanHit), mres.Epoch
		resp.Materialized, resp.RefreshWallNS = mres.Kind, mres.RefreshWall.Nanoseconds()
	} else {
		var plan *pipeline.Plan
		var hit bool
		if auto != nil {
			plan, hit = auto.Plan, auto.PlanHit
		} else if plan, hit, err = s.cache.Lookup(ctx, s.Program, s.hash, s.constraints, query, strategy); err != nil {
			return resp, compileFailed(err)
		}
		resp.PlanCache = cacheLabel(hit)
		// EXPLAIN describes the compiled plan (and, for explain=plan, stops
		// there); an auto-resolved request also carries the candidate table.
		if req.Explain != "" {
			info, err := plan.Pipeline().Explain(strategy)
			if err != nil {
				return resp, compileFailed(err)
			}
			if auto != nil {
				info.Candidates = auto.Candidates
			}
			resp.Explain = &ExplainResponse{
				QueryID: req.ID, Mode: req.Explain, Plan: info,
				PlanCache: PlanCacheInfo{Disposition: resp.PlanCache, CompileWallNS: plan.CompileWall.Nanoseconds()},
			}
			if !analyze {
				return resp, nil
			}
		}
		// A DB per request, the base shared: the request pins the current
		// image version and evaluates over a DB that aliases its frozen
		// relations — no fact is copied, and the response reports exactly
		// the epoch it pinned. Evaluation derives only into relations
		// private to this DB, so one query's derivations never reach the
		// next.
		version := s.Mat.Version()
		resp.Epoch = version.Epoch()
		run, err := plan.Run(version.EvalDB(), opts)
		if err != nil {
			return resp, err
		}
		// Calibrate the planner with what the run actually derived, so the
		// next shadow re-cost of this query shape prices against measured
		// rows.
		if auto != nil && len(run.Rules) > 0 {
			s.planner.Observe(query, run.Program, run.Rules)
		}
		s.observeRun(run)
		res = *run
	}
	total := time.Since(start)
	s.recordTrace(tc, traced, total, resp.Strategy, resp.Materialized)
	s.observe(strategy.String(), total, nil)

	resp.Answers = pipeline.SortedAnswers(&res)
	resp.AnswerCount = len(resp.Answers)
	resp.Facts, resp.Inferences, resp.Iterations = res.Facts, res.Inferences, res.Iterations
	resp.EvalWallNS, resp.TotalWallNS = res.EvalWall.Nanoseconds(), total.Nanoseconds()
	resp.Degraded, resp.Executor, resp.Stream = res.Degraded, res.Executor, res.Stream
	if analyze {
		result := resp
		snap := tc.Snapshot()
		resp.Explain.Result, resp.Explain.Trace, resp.Explain.Profile = &result, &snap, tc.Profile()
	}
	return resp, nil
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
