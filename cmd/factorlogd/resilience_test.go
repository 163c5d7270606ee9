package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
	"factorlog/internal/serve"
)

func serverMetrics(t *testing.T, url string) obsv.ServerStats {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats obsv.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestAdmissionShed saturates a capacity-1, queue-0 limiter and checks the
// second request is shed with 429 + Retry-After instead of waiting.
func TestAdmissionShed(t *testing.T) {
	s, ts := testServer(t, tcProgram, serve.Config{
		Strategy: "magic", Timeout: 5 * time.Second, MaxConcurrency: 1, MaxQueue: 0,
	})
	// Hold the only admission slot directly; no timing games.
	release, err := s.Limiter.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("t(5,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSeconds < 1 {
		t.Errorf("429 body %s: want typed serve.ErrorResponse with retry_after_seconds", body)
	}

	stats := serverMetrics(t, ts.URL)
	if stats.Resilience.Admission.Shed < 1 {
		t.Errorf("shed counter = %d, want >= 1", stats.Resilience.Admission.Shed)
	}
}

// TestAdmissionQueueTimeout parks a request in the wait queue until its
// deadline expires; the failure is typed, 429, and counted.
func TestAdmissionQueueTimeout(t *testing.T) {
	s, ts := testServer(t, tcProgram, serve.Config{
		Strategy: "magic", Timeout: 5 * time.Second, MaxConcurrency: 1, MaxQueue: 4,
	})
	release, err := s.Limiter.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	status, _, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "timeout_ms": {"50"}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("queued-past-deadline status %d, want 429: %s", status, body)
	}
	if !strings.Contains(body, "queued") {
		t.Errorf("body %q does not name the queue wait", body)
	}
	if got := serverMetrics(t, ts.URL).Resilience.Admission.QueueTimeouts; got < 1 {
		t.Errorf("queue timeouts = %d, want >= 1", got)
	}
}

// TestReadyzLifecycle walks readiness through its three states — warming
// up, ready, draining — and checks liveness stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}

	if status, m := get("/readyz"); status != http.StatusServiceUnavailable || m["status"] != "warming up" {
		t.Errorf("pre-warmup readyz: %d %v, want 503 warming up", status, m)
	}
	if warns := s.Warmup(); len(warns) != 0 {
		t.Fatal(warns)
	}
	if status, m := get("/readyz"); status != http.StatusOK || m["ready"] != true {
		t.Errorf("post-warmup readyz: %d %v, want 200 ready", status, m)
	}

	s.BeginDrain()
	if status, m := get("/readyz"); status != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Errorf("draining readyz: %d %v, want 503 draining", status, m)
	}
	// Liveness is a different question: the process is still healthy.
	if status, m := get("/healthz"); status != http.StatusOK || m["status"] != "ok" {
		t.Errorf("draining healthz: %d %v, want 200 ok", status, m)
	}

	// New queries are refused with the typed draining body.
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("t(5,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var er serve.ErrorResponse
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &er) != nil || !er.Draining {
		t.Errorf("query during drain: %d %s, want typed 503 draining body", resp.StatusCode, body)
	}
	if got := serverMetrics(t, ts.URL).Resilience.Drained; got < 1 {
		t.Errorf("drained counter = %d, want >= 1", got)
	}
}

// TestDrainCancelsInFlight starts a divergent evaluation, then drains: the
// in-flight request must come back promptly with the typed 503, not run to
// its 10s deadline or hold shutdown hostage.
func TestDrainCancelsInFlight(t *testing.T) {
	s, ts := testServer(t, divergentProgram, serve.Config{Strategy: "semi-naive", Timeout: 10 * time.Second})

	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("n(X)"))
		if err != nil {
			done <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, string(body)}
	}()

	// Wait for the evaluation to be in flight before draining.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.BeginDrain()

	select {
	case r := <-done:
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("drained in-flight query: status %d: %s", r.status, r.body)
		}
		var er serve.ErrorResponse
		if json.Unmarshal([]byte(r.body), &er) != nil || !er.Draining {
			t.Errorf("body %s: want typed draining 503", r.body)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("cancellation took %v — the evaluation ran out its own deadline", waited)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("in-flight query did not return after drain")
	}
}

// TestQueryMemoryBudget drives the per-request max_bytes override to a
// value no evaluation fits in and checks the typed 422 + counter.
func TestQueryMemoryBudget(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})

	status, _, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "max_bytes": {"16"}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("max_bytes=16: status %d, want 422: %s", status, body)
	}
	if !strings.Contains(body, "memory budget") {
		t.Errorf("body %q does not name the memory budget", body)
	}
	if got := serverMetrics(t, ts.URL).Resilience.MemoryBudgetStops; got < 1 {
		t.Errorf("memory_budget_stops = %d, want >= 1", got)
	}

	// A generous budget does not interfere.
	if status, qr, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "max_bytes": {"67108864"}}); status != http.StatusOK || qr.AnswerCount != 3 {
		t.Errorf("max_bytes=64MiB: status %d answers %d: %s", status, qr.AnswerCount, body)
	}
}

// TestWorkerPanicDegradedQuery injects a panic into every parallel worker:
// the query still answers 200 (via the sequential retry) and is flagged
// degraded in both the response and /metrics.
func TestWorkerPanicDegradedQuery(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	disable := faultinject.Enable(faultinject.Config{
		Seed: 1, MaxPeriod: 1, Points: []faultinject.Point{faultinject.WorkerStart},
	})
	defer disable()

	status, qr, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}, "workers": {"4"}})
	if status != http.StatusOK {
		t.Fatalf("degraded query: status %d: %s", status, body)
	}
	if !qr.Degraded {
		t.Error("response not flagged degraded after worker panics")
	}
	if got := fmt_answers(qr.Answers); got != "[(6) (7) (8)]" {
		t.Errorf("degraded answers = %s, want [(6) (7) (8)]", got)
	}
	if got := serverMetrics(t, ts.URL).Resilience.Degraded; got < 1 {
		t.Errorf("degraded counter = %d, want >= 1", got)
	}
}

// TestPanicIsReported500 arms a point the sequential path also hits, so
// both the parallel run and the retry die: the response must be a typed
// 500, never a crashed connection, and the panic is counted.
func TestPanicIsReported500(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	disable := faultinject.Enable(faultinject.Config{
		Seed: 1, MaxPeriod: 1, Points: []faultinject.Point{faultinject.ArenaGrow},
	})
	status, _, body := getQuery(t, ts, url.Values{"q": {"t(5,Y)"}})
	disable()
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking eval: status %d, want 500: %s", status, body)
	}
	if !strings.Contains(body, "internal error") {
		t.Errorf("body %q does not carry the typed internal error", body)
	}
	if got := serverMetrics(t, ts.URL).Resilience.Panics; got < 1 {
		t.Errorf("panics counter = %d, want >= 1", got)
	}
}

func fmt_answers(a []string) string {
	return "[" + strings.Join(a, " ") + "]"
}
