package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"factorlog/internal/engine"
	"factorlog/internal/obsv"
	"factorlog/internal/pipeline"
	"factorlog/internal/resilience"
	"factorlog/internal/trace"
)

// observe folds one finished query into the metrics; latency is recorded
// only for successful evaluations so the histograms measure real query
// cost, not fast-path rejections.
func (s *Server) observe(strategy string, d time.Duration, err error) {
	if err != nil {
		s.countFailure(err)
	}
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

// countFailure folds a failed request into the resilience counters:
// shutdown refusals, recovered panics, memory-budget stops.
func (s *Server) countFailure(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, ErrDraining) || errors.Is(err, resilience.ErrLimiterClosed) {
		s.drained++
		return
	}
	if errors.Is(err, engine.ErrInternal) {
		s.panics++
	}
	if errors.Is(err, engine.ErrMemoryBudget) {
		s.memStops++
	}
}

// observeRun folds one successful from-scratch evaluation into the
// metrics: the degraded counter, the rounds and storage-footprint
// histograms, and the storage high-water record (replaced whole, so the
// reported load factors describe the same evaluation as the bytes).
func (s *Server) observeRun(res *pipeline.RunResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res.Degraded {
		s.degraded++
	}
	s.rounds.Observe(float64(res.Iterations))
	s.arena.Observe(float64(res.Storage.ArenaBytes + res.Storage.IndexBytes))
	if res.Storage.ArenaBytes+res.Storage.IndexBytes > s.storageHW.ArenaBytes+s.storageHW.IndexBytes {
		s.storageHW = res.Storage
	}
}

// recordTrace finishes and publishes a kept trace: traced queries land in
// the sampled-trace ring, slow queries (traced or not) in the slowlog. Its
// root span notes the strategy that served the query — for auto requests
// the optimizer's pick, not "auto" — and the materialization refresh, if
// one answered it. A fast untraced query's trace is dropped untouched.
func (s *Server) recordTrace(tc *trace.Context, traced bool, total time.Duration, strategy, materialized string) {
	slow := s.slowThreshold > 0 && total >= s.slowThreshold
	if !traced && !slow {
		return
	}
	note := "strategy=" + strategy
	if materialized != "" {
		note += " materialized=" + materialized
	}
	tc.Root().SetNote(note)
	tc.Finish()
	if traced {
		s.traces.Add(tc)
	}
	if slow {
		s.slowlog.Add(tc)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if traced {
		s.traced++
	}
	if slow {
		s.slowSeen++
	}
}

// handleHealthz is pure liveness: the process is up and can answer HTTP.
// It stays 200 during drain — restarting a deliberately-draining process
// because its health check "failed" would defeat graceful shutdown. Routing
// decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"program_hash":   s.hash,
		"rules":          len(s.Program.Rules),
		"base_facts":     s.Mat.BaseCount(),
		"epoch":          s.Mat.Epoch(),
		"durable":        s.WAL != nil,
	}
	if s.WAL != nil {
		body["wal_epoch"] = s.WAL.Epoch()
		body["last_snapshot_epoch"] = s.WAL.SnapshotEpoch()
		body["replaying"] = s.replaying.Load()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is readiness: 200 only after warmup has filled the plan
// cache and before drain begins, so load balancers stop routing here the
// moment shutdown starts. A server still replaying its WAL tail is not
// ready either — its base has not yet caught up to the pre-crash epoch.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusServiceUnavailable
	switch {
	case s.draining.Load():
		status = "draining"
	case s.replaying.Load():
		status = "replaying"
	case !s.ready.Load():
		status = "warming up"
	default:
		code = http.StatusOK
	}
	writeJSON(w, code, map[string]any{"status": status, "ready": code == http.StatusOK})
}

// snapshot builds the ServerStats document under the metrics lock,
// copying the histograms' bucket counts (their bounds never change) so
// rendering happens outside it.
func (s *Server) snapshot() obsv.ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	latency := make(map[string]*obsv.Histogram, len(s.latency))
	for name, h := range s.latency {
		cp := *h
		cp.BucketCounts = append([]int64(nil), h.BucketCounts...)
		latency[name] = &cp
	}
	rounds := *s.rounds
	rounds.BucketCounts = append([]int64(nil), s.rounds.BucketCounts...)
	arena := *s.arena
	arena.BucketCounts = append([]int64(nil), s.arena.BucketCounts...)
	stats := obsv.ServerStats{
		Schema:           obsv.MetricsSchema,
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Queries:          s.queries,
		Errors:           s.errors,
		InFlight:         s.InFlight.Load(),
		PlanCache:        s.cache.Stats(),
		Latency:          latency,
		Rounds:           &rounds,
		ArenaBytes:       &arena,
		SlowQueries:      s.slowSeen,
		TracedQueries:    s.traced,
		StorageHighWater: s.storageHW,
		Resilience: obsv.ResilienceStats{
			Admission:         s.Limiter.Stats(),
			Panics:            s.panics,
			Degraded:          s.degraded,
			MemoryBudgetStops: s.memStops,
			Drained:           s.drained,
		},
		Mutation:   s.Mat.Stats(),
		PlanSearch: s.planner.Stats(),
	}
	// With durability off the WAL block stays zero (enabled:false),
	// keeping the schema shape stable.
	if s.WAL != nil {
		stats.Durability = s.WAL.Stats()
	}
	return stats
}

// handleMetrics serves Prometheus text exposition by default (what scrapers
// expect of a /metrics endpoint); ?format=json keeps the structured
// obsv.MetricsSchema document and ?format=text the human-readable table.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("bad format %q (one of: prometheus, json, text)", r.URL.Query().Get("format")),
		})
	}
}

// handleSlowlog returns the recent slow queries, newest first, as finished
// trace snapshots (untraced slow queries appear with just their root span).
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing trace id (/debug/trace/{id})"})
		return
	}
	tc := s.traces.Get(id)
	if tc == nil {
		tc = s.slowlog.Get(id)
	}
	if tc == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no trace %q (sampled traces and slow queries are kept for the last %d each)", id, traceRingSize)})
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tc.Profile())
		return
	}
	writeJSON(w, http.StatusOK, tc.Snapshot())
}
