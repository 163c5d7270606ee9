package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"factorlog/internal/obsv"
	"factorlog/internal/serve"
)

// example44Program is Example 4.4 of the paper (a symmetric program) with a
// small EDB consistent with its presumed regularities: every e target is in
// r1 and r2.
const example44Program = `
p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y).
p(X, Y) :- l2(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r2(Y).
p(X, Y) :- e(X, Y).

l1(5). l2(5).
e(5, 6). e(6, 7). e(7, 8).
c(6, 6, 6). c(6, 6, 7). c(7, 7, 7).
r1(6). r1(7). r1(8).
r2(6). r2(7). r2(8).

?- p(5, Y).
`

const example44Constraints = `
r1(Y) :- e(X, Y).
r2(Y) :- e(X, Y).
`

func example44Server(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.MaxConcurrency == 0 {
		cfg.MaxConcurrency = 1024
		cfg.MaxQueue = 256
	}
	s, err := serve.New(example44Program, example44Constraints, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestExplainPlan covers explain=plan: the compiled plan is described — the
// applied reductions, the transformed rules, the stratum schedule, and the
// plan-cache disposition — without evaluating the query.
func TestExplainPlan(t *testing.T) {
	srv, ts := example44Server(t, serve.Config{Strategy: "factored", Timeout: 5 * time.Second})
	srv.Warmup()

	resp, body := getBody(t, ts.URL+"/query?"+url.Values{
		"q": {"p(5, Y)"}, "explain": {"plan"},
	}.Encode())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er serve.ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if er.Mode != "plan" || er.Plan == nil {
		t.Fatalf("mode=%q plan=%v", er.Mode, er.Plan)
	}
	if er.Result != nil || er.Trace != nil {
		t.Error("explain=plan evaluated the query")
	}
	joined := strings.Join(er.Plan.Reductions, "\n")
	if !strings.Contains(joined, "magic sets") || !strings.Contains(joined, "factoring (class symmetric") {
		t.Errorf("reductions missing magic/factoring: %v", er.Plan.Reductions)
	}
	if len(er.Plan.Strata) == 0 {
		t.Error("no stratum schedule")
	}
	// The streaming classification is part of every plan: the factored
	// program's seed strata stream, and their operator trees ride along.
	// CI greps the response for the "executor": "stream" literal.
	streamed := 0
	for _, st := range er.Plan.Strata {
		if st.Executor == "stream" {
			streamed++
			if len(st.Plans) == 0 || st.Plans[0].Root == nil {
				t.Errorf("stratum %d: streamed without operator tree", st.Index)
			}
		}
	}
	if streamed == 0 {
		t.Errorf("no streamed stratum in plan: %s", body)
	}
	if !strings.Contains(string(body), `"executor":"stream"`) {
		t.Error(`response body missing "executor":"stream" literal`)
	}
	// Warmup compiled the declared ?- p(5, Y) plan, so this lookup hits.
	if er.PlanCache.Disposition != "hit" {
		t.Errorf("plan_cache disposition = %q, want hit (warmed)", er.PlanCache.Disposition)
	}
	if er.PlanCache.CompileWallNS <= 0 {
		t.Errorf("compile_wall_ns = %d, want > 0", er.PlanCache.CompileWallNS)
	}
	if er.QueryID == "" || resp.Header.Get(serve.QueryIDHeader) != er.QueryID {
		t.Errorf("query_id %q / header %q mismatch", er.QueryID, resp.Header.Get(serve.QueryIDHeader))
	}
}

// TestExplainAnalyzeExample44 is the acceptance path: EXPLAIN ANALYZE on
// Example 4.4 returns a span tree naming each pipeline stage and at least
// one applied reduction, with per-stratum timings under parallel eval.
func TestExplainAnalyzeExample44(t *testing.T) {
	srv, ts := example44Server(t, serve.Config{Strategy: "factored", Timeout: 5 * time.Second})
	srv.Warmup()

	resp, body := getBody(t, ts.URL+"/query?"+url.Values{
		"q": {"p(5, Y)"}, "explain": {"analyze"}, "workers": {"2"},
	}.Encode())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er serve.ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if er.Mode != "analyze" || er.Plan == nil || er.Result == nil || er.Trace == nil {
		t.Fatalf("incomplete analyze response: %s", body)
	}
	if len(er.Plan.Reductions) == 0 {
		t.Error("no applied reductions")
	}
	if er.Result.AnswerCount == 0 {
		t.Errorf("no answers: %v", er.Result)
	}
	// The span tree names every pipeline stage of the factored strategy and
	// carries per-stratum timings from the parallel evaluator.
	for _, stage := range []string{"adorn", "magic", "factor", "eval", "stratum", "round"} {
		if !strings.Contains(er.Profile, stage) {
			t.Errorf("profile missing %q:\n%s", stage, er.Profile)
		}
	}
	var strata int
	var walk func(raw json.RawMessage)
	type spanNode struct {
		Name     string            `json:"name"`
		Stratum  *int              `json:"stratum"`
		WallNS   int64             `json:"wall_ns"`
		Children []json.RawMessage `json:"children"`
	}
	walk = func(raw json.RawMessage) {
		var n spanNode
		if err := json.Unmarshal(raw, &n); err != nil {
			t.Fatal(err)
		}
		if n.Name == "stratum" {
			strata++
			if n.Stratum == nil {
				t.Error("stratum span without stratum index")
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	rootRaw, err := json.Marshal(er.Trace.Root)
	if err != nil {
		t.Fatal(err)
	}
	walk(rootRaw)
	if strata == 0 {
		t.Errorf("no per-stratum spans in trace:\n%s", er.Profile)
	}
}

// TestQueryIDOnErrors checks the satellite: typed error responses carry the
// query ID in both the header and the body.
func TestQueryIDOnErrors(t *testing.T) {
	_, ts := testServer(t, divergentProgram, serve.Config{Strategy: "semi-naive", Timeout: 5 * time.Second})

	// 422: fact budget exceeded.
	resp, body := getBody(t, ts.URL+"/query?"+url.Values{
		"q": {"n(Y)"}, "budget": {"10"},
	}.Encode())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.QueryID == "" || resp.Header.Get(serve.QueryIDHeader) != er.QueryID {
		t.Errorf("422 query_id %q / header %q", er.QueryID, resp.Header.Get(serve.QueryIDHeader))
	}

	// 400: parse failure still mints and returns an ID.
	resp, body = getBody(t, ts.URL+"/query?q=%28broken")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.QueryID == "" || resp.Header.Get(serve.QueryIDHeader) != er.QueryID {
		t.Errorf("400 query_id %q / header %q", er.QueryID, resp.Header.Get(serve.QueryIDHeader))
	}
}

// TestMetricsPrometheusDefault checks /metrics serves valid Prometheus text
// exposition by default while ?format=json keeps the v5 document.
func TestMetricsPrometheusDefault(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	if code, _, body := getQuery(t, ts, url.Values{"q": {"t(5, Y)"}}); code != http.StatusOK {
		t.Fatalf("query failed: %d %s", code, body)
	}

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text v0.0.4", ct)
	}
	n, err := obsv.ParsePromText(string(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	if n < 30 {
		t.Errorf("only %d samples", n)
	}
	for _, want := range []string{
		"factorlog_queries_total 1",
		"factorlog_query_duration_seconds_bucket",
		"factorlog_plan_cache_misses_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	resp, body = getBody(t, ts.URL+"/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d", resp.StatusCode)
	}
	var stats obsv.ServerStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("bad JSON metrics: %v", err)
	}
	if stats.Schema != obsv.MetricsSchema {
		t.Errorf("schema %q, want %q", stats.Schema, obsv.MetricsSchema)
	}
	if stats.Rounds == nil || stats.Rounds.Count != 1 {
		t.Errorf("rounds histogram not recorded: %+v", stats.Rounds)
	}

	if resp, _ := getBody(t, ts.URL+"/metrics?format=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status %d, want 400", resp.StatusCode)
	}
}

// TestSlowlogAndTraceLookup drives a query past a tiny slow threshold and
// fetches it back through /debug/slowlog and /debug/trace/{id}.
func TestSlowlogAndTraceLookup(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{
		Strategy: "magic", Timeout: 5 * time.Second,
		TraceSample: 1, SlowQuery: time.Nanosecond,
	})

	resp, body := getBody(t, ts.URL+"/query?"+url.Values{"q": {"t(5, Y)"}}.Encode())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	qid := resp.Header.Get(serve.QueryIDHeader)
	if qid == "" {
		t.Fatal("no query ID header")
	}

	resp, body = getBody(t, ts.URL+"/debug/slowlog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d", resp.StatusCode)
	}
	var slow struct {
		Total  int64             `json:"total"`
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Total != 1 || len(slow.Traces) != 1 {
		t.Errorf("slowlog total=%d traces=%d, want 1/1", slow.Total, len(slow.Traces))
	}
	if !strings.Contains(string(body), qid) {
		t.Errorf("slowlog does not mention %s:\n%s", qid, body)
	}

	resp, body = getBody(t, ts.URL+"/debug/trace/"+qid)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"name":"eval"`) {
		t.Errorf("trace for %s has no eval span:\n%s", qid, body)
	}

	if resp, _ := getBody(t, ts.URL+"/debug/trace/q-nope-0"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status %d, want 404", resp.StatusCode)
	}

	// Sampled metrics counters follow.
	_, body = getBody(t, ts.URL+"/metrics?format=json")
	var stats obsv.ServerStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.TracedQueries != 1 || stats.SlowQueries != 1 {
		t.Errorf("traced=%d slow=%d, want 1/1", stats.TracedQueries, stats.SlowQueries)
	}
}

// TestSlowlogSeesMaterializedQueries: a query served from a
// materialization reaches the slowlog and the sampled-trace store like a
// from-scratch one, its root span naming the strategy and the refresh.
func TestSlowlogSeesMaterializedQueries(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{
		Strategy: "magic", Timeout: 5 * time.Second, Materialize: true,
		TraceSample: 1, SlowQuery: time.Nanosecond,
	})
	resp, body := getBody(t, ts.URL+"/query?"+url.Values{"q": {"t(5, Y)"}}.Encode())
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"materialized":"build"`) {
		t.Fatalf("query: status %d, want a materialization build: %s", resp.StatusCode, body)
	}
	qid := resp.Header.Get(serve.QueryIDHeader)

	_, body = getBody(t, ts.URL+"/debug/slowlog")
	if !strings.Contains(string(body), qid) || !strings.Contains(string(body), "strategy=magic materialized=build") {
		t.Errorf("slowlog misses the materialized query %s:\n%s", qid, body)
	}
	if resp, body := getBody(t, ts.URL+"/debug/trace/"+qid); resp.StatusCode != http.StatusOK {
		t.Errorf("trace lookup for %s: status %d: %s", qid, resp.StatusCode, body)
	}
	if stats := serverMetrics(t, ts.URL); stats.TracedQueries != 1 || stats.SlowQueries != 1 {
		t.Errorf("traced=%d slow=%d, want 1/1", stats.TracedQueries, stats.SlowQueries)
	}
}
