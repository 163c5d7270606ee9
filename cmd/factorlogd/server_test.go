package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"factorlog/internal/obsv"
	"factorlog/internal/serve"
)

const tcProgram = `
t(X, Y) :- t(X, W), t(W, Y).
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).

e(5, 6).
e(6, 7).
e(7, 8).
e(1, 2).

?- t(5, Y).
`

// divergentProgram never reaches a fixpoint; only a deadline, cancellation,
// or budget stops it.
const divergentProgram = `
n(z).
n(f(X)) :- n(X).
`

func testServer(t *testing.T, src string, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	// Tests that don't configure admission get a limiter wide enough to
	// never interfere; admission-specific tests set maxConcurrency
	// explicitly to exercise queueing and shedding.
	if cfg.MaxConcurrency == 0 {
		cfg.MaxConcurrency = 1024
		cfg.MaxQueue = 256
	}
	s, err := serve.New(src, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

func getQuery(t *testing.T, ts *httptest.Server, params url.Values) (int, serve.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?" + params.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.Response
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, qr, string(body)
}

func TestQueryCacheMissThenHit(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})

	// First query for this (predicate, adornment, strategy) shape compiles
	// the plan; the identical repeat reuses it.
	status, qr, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if qr.PlanCache != "miss" {
		t.Errorf("first query: plan_cache = %q, want miss", qr.PlanCache)
	}
	want := []string{"(6)", "(7)", "(8)"}
	if fmt.Sprint(qr.Answers) != fmt.Sprint(want) {
		t.Errorf("answers = %v, want %v", qr.Answers, want)
	}

	status, qr, body = getQuery(t, ts, url.Values{"q": {"t(5,Y)"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if qr.PlanCache != "hit" {
		t.Errorf("repeat query: plan_cache = %q, want hit", qr.PlanCache)
	}
	if fmt.Sprint(qr.Answers) != fmt.Sprint(want) {
		t.Errorf("repeat answers = %v, want %v", qr.Answers, want)
	}

	// Same shape, different constant: no rewrite runs (the plan binds 6
	// into the template t(5,Y) compiled), and it finds its own answers.
	status, qr, _ = getQuery(t, ts, url.Values{"q": {"t(6,Y)"}})
	if status != http.StatusOK || qr.PlanCache != "hit" {
		t.Errorf("t(6,Y): status %d plan_cache %q, want 200 hit", status, qr.PlanCache)
	}
	if fmt.Sprint(qr.Answers) != fmt.Sprint([]string{"(7)", "(8)"}) {
		t.Errorf("t(6,Y) answers = %v", qr.Answers)
	}
}

// TestQueryStreamingExecutor covers the stream request knob: opted-in
// queries run the stratified schedule (reporting which strata ran one pass
// and the rows they emitted), identical answers to the default run, and a
// malformed stream value is rejected up front.
func TestQueryStreamingExecutor(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})

	status, plain, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if plain.Executor != "materialize" || plain.Stream != nil {
		t.Errorf("default run: executor=%q stream=%v, want materialize/nil", plain.Executor, plain.Stream)
	}

	status, streamed, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "stream": {"1"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if streamed.Executor != "stream" || streamed.Stream == nil {
		t.Fatalf("streamed run: executor=%q stream=%v", streamed.Executor, streamed.Stream)
	}
	if streamed.Stream.Streamed == 0 || streamed.Stream.RowsEmitted == 0 {
		t.Errorf("stream counters empty: %+v", streamed.Stream)
	}
	if fmt.Sprint(streamed.Answers) != fmt.Sprint(plain.Answers) {
		t.Errorf("answers differ: %v vs %v", streamed.Answers, plain.Answers)
	}

	status, _, body = getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "stream": {"maybe"}})
	if status != http.StatusBadRequest {
		t.Errorf("bad stream value: status %d, want 400: %s", status, body)
	}
}

func TestMetricsReportCacheHits(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	for i := 0; i < 3; i++ {
		if status, _, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}}); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats obsv.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Schema != obsv.MetricsSchema {
		t.Errorf("schema = %q, want %q", stats.Schema, obsv.MetricsSchema)
	}
	if stats.PlanCache.Hits < 2 {
		t.Errorf("plan cache hits = %d, want >= 2", stats.PlanCache.Hits)
	}
	if stats.Queries != 3 || stats.Errors != 0 {
		t.Errorf("queries/errors = %d/%d, want 3/0", stats.Queries, stats.Errors)
	}
	h := stats.Latency["magic"]
	if h == nil || h.Count != 3 {
		t.Errorf("latency histogram for magic = %+v, want count 3", h)
	}

	// The text rendering carries the same counters.
	resp2, err := http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	text, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(text), "plan cache:") || !strings.Contains(string(text), "magic") {
		t.Errorf("text metrics missing expected lines:\n%s", text)
	}
}

// TestConcurrentQueries drives 32 concurrent in-flight requests (mixed
// shapes: two constants, two strategies, both worker counts) through one
// server and checks every response; under -race this also exercises the
// shared plan cache and pipeline memoization for data races.
func TestConcurrentQueries(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 10 * time.Second})

	type shape struct {
		q        string
		strategy string
		workers  string
		want     string
	}
	shapes := []shape{
		{"t(5,Y)", "magic", "1", "[(6) (7) (8)]"},
		{"t(5,Y)", "factored+opt", "2", "[(6) (7) (8)]"},
		{"t(6,Y)", "magic", "2", "[(7) (8)]"},
		{"t(6,Y)", "semi-naive", "1", "[(7) (8)]"},
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		sh := shapes[i%len(shapes)]
		wg.Add(1)
		go func() {
			// No t.Fatal here: test helpers must not FailNow off the test
			// goroutine, so failures flow through the channel.
			defer wg.Done()
			params := url.Values{"q": {sh.q}, "strategy": {sh.strategy}, "workers": {sh.workers}}
			resp, err := http.Get(ts.URL + "/query?" + params.Encode())
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s/%s: status %d: %s", sh.q, sh.strategy, resp.StatusCode, body)
				return
			}
			var qr serve.Response
			if err := json.Unmarshal(body, &qr); err != nil {
				errs <- fmt.Errorf("%s/%s: %v", sh.q, sh.strategy, err)
				return
			}
			if got := fmt.Sprint(qr.Answers); got != sh.want {
				errs <- fmt.Errorf("%s/%s: answers %s, want %s", sh.q, sh.strategy, got, sh.want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats obsv.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != n {
		t.Errorf("queries = %d, want %d", stats.Queries, n)
	}
	// 4 distinct (query, strategy) plans over one query shape. Only the
	// rewrites miss: factored+opt's first compile always runs factor and
	// optimize, and magic's first compile runs adorn and magic unless
	// factored+opt's got there first. Semi-naive rewrites nothing.
	if stats.PlanCache.Entries != len(shapes) {
		t.Errorf("cache entries = %d, want %d", stats.PlanCache.Entries, len(shapes))
	}
	if m := stats.PlanCache.Misses; m < 1 || m > 2 || stats.PlanCache.Hits != n-m {
		t.Errorf("cache hits/misses = %d/%d, want 1 or 2 misses and the rest hits", stats.PlanCache.Hits, m)
	}
}

func TestQueryDeadline(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		_, ts := testServer(t, divergentProgram, serve.Config{Strategy: "semi-naive", Timeout: 10 * time.Second})
		start := time.Now()
		status, _, body := getQuery(t, ts, url.Values{
			"q": {"n(X)"}, "timeout_ms": {"100"}, "workers": {workers},
		})
		if status != http.StatusGatewayTimeout {
			t.Fatalf("workers=%s: status %d, want %d: %s", workers, status, http.StatusGatewayTimeout, body)
		}
		if !strings.Contains(body, "deadline") {
			t.Errorf("workers=%s: error body %q does not mention the deadline", workers, body)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("workers=%s: deadline enforcement took %v", workers, elapsed)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: time.Second})

	status, _, body := getQuery(t, ts, url.Values{})
	if status != http.StatusBadRequest {
		t.Errorf("missing q: status %d: %s", status, body)
	}
	status, _, body = getQuery(t, ts, url.Values{"q": {"t(5,"}})
	if status != http.StatusBadRequest {
		t.Errorf("malformed q: status %d: %s", status, body)
	}
	status, _, body = getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "strategy": {"nope"}})
	if status != http.StatusBadRequest {
		t.Errorf("bad strategy: status %d: %s", status, body)
	}
}

// TestQueryRepeatedVariables reproduces the cache-aliasing bug end to end:
// a plan cached for t(X,Y) must not serve t(X,X), whose answers are only
// the diagonal (empty here — the edge graph is acyclic).
func TestQueryRepeatedVariables(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})

	status, qr, body := getQuery(t, ts, url.Values{"q": {"t(X,Y)"}})
	if status != http.StatusOK {
		t.Fatalf("t(X,Y): status %d: %s", status, body)
	}
	if qr.AnswerCount != 7 {
		t.Errorf("t(X,Y): %d answers, want 7", qr.AnswerCount)
	}

	status, qr, body = getQuery(t, ts, url.Values{"q": {"t(X,X)"}})
	if status != http.StatusOK {
		t.Fatalf("t(X,X): status %d: %s", status, body)
	}
	if qr.PlanCache != "miss" {
		t.Errorf("t(X,X) after t(X,Y): plan_cache = %q, want miss", qr.PlanCache)
	}
	if qr.AnswerCount != 0 {
		t.Errorf("t(X,X): answers %v, want none", qr.Answers)
	}
}

func TestQueryMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: time.Second})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/query", strings.NewReader(`{"query":"t(5,Y)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /query: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, POST" {
		t.Errorf("Allow = %q, want \"GET, POST\"", allow)
	}
}

func TestQueryBodyTooLarge(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: time.Second})
	// A syntactically valid JSON document just over the 1 MiB cap.
	huge := fmt.Sprintf(`{"query": "t(5,Y)", "strategy": %q}`, strings.Repeat("x", serve.MaxQueryBody))
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want %d: %s", resp.StatusCode, http.StatusRequestEntityTooLarge, body)
	}
}

func TestQueryPost(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query": "t(5,Y)", "strategy": "sup-magic"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(qr.Answers) != 3 {
		t.Errorf("POST: status %d answers %v", resp.StatusCode, qr.Answers)
	}
	if qr.Strategy != "sup-magic" {
		t.Errorf("strategy = %q, want sup-magic", qr.Strategy)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Errorf("healthz: status %d body %v", resp.StatusCode, h)
	}
	if h["rules"] != float64(4) {
		t.Errorf("rules = %v, want 4", h["rules"])
	}
}

func TestWarmupPrimesDeclaredQueries(t *testing.T) {
	s, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	if warns := s.Warmup(); len(warns) != 0 {
		t.Fatalf("warmup warnings: %v", warns)
	}
	// The program declares ?- t(5, Y); after warmup its first request hits.
	status, qr, body := getQuery(t, ts, url.Values{"q": {"t(5, Y)"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if qr.PlanCache != "hit" {
		t.Errorf("post-warmup query: plan_cache = %q, want hit", qr.PlanCache)
	}
}
