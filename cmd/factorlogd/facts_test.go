package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"factorlog/internal/obsv"
	"factorlog/internal/serve"
)

func postFacts(t *testing.T, ts *httptest.Server, body string) (int, serve.FactsResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/facts", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fr serve.FactsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &fr); err != nil {
			t.Fatalf("bad facts JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, fr, string(raw)
}

func answersOf(t *testing.T, ts *httptest.Server, query, strategy string) ([]string, serve.Response) {
	t.Helper()
	status, qr, body := getQuery(t, ts, url.Values{"q": {query}, "strategy": {strategy}})
	if status != http.StatusOK {
		t.Fatalf("query %s (%s): status %d: %s", query, strategy, status, body)
	}
	return qr.Answers, qr
}

func TestFactsAssertRetractLifecycle(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})

	answers, qr := answersOf(t, ts, "t(5,Y)", "magic")
	if len(answers) != 3 || qr.Epoch != 0 {
		t.Fatalf("seed answers/epoch = %v/%d, want 3 answers at epoch 0", answers, qr.Epoch)
	}
	if qr.Materialized != "build" {
		t.Errorf("first materialized serve kind = %q, want build", qr.Materialized)
	}

	// Assert an edge extending the 5→…→8 chain.
	status, fr, body := postFacts(t, ts, `{"assert":["e(8,9)."]}`)
	if status != http.StatusOK {
		t.Fatalf("assert: status %d: %s", status, body)
	}
	if fr.Epoch != 1 || fr.Asserted != 1 {
		t.Errorf("assert response = %+v, want epoch 1, asserted 1", fr)
	}
	answers, qr = answersOf(t, ts, "t(5,Y)", "magic")
	if len(answers) != 4 || qr.Epoch != 1 {
		t.Errorf("post-assert answers/epoch = %v/%d, want 4 answers at epoch 1", answers, qr.Epoch)
	}
	if qr.Materialized != "delta" {
		t.Errorf("post-assert serve kind = %q, want delta", qr.Materialized)
	}

	// Re-serving with no mutation is a hit at the same epoch.
	_, qr = answersOf(t, ts, "t(5,Y)", "magic")
	if qr.Materialized != "hit" || qr.Epoch != 1 {
		t.Errorf("unchanged serve = %q at epoch %d, want hit at 1", qr.Materialized, qr.Epoch)
	}

	// Retract it again: the derived closure shrinks back.
	status, fr, body = postFacts(t, ts, `{"retract":["e(8,9)"]}`)
	if status != http.StatusOK {
		t.Fatalf("retract: status %d: %s", status, body)
	}
	if fr.Epoch != 2 || fr.Retracted != 1 {
		t.Errorf("retract response = %+v, want epoch 2, retracted 1", fr)
	}
	answers, qr = answersOf(t, ts, "t(5,Y)", "magic")
	if len(answers) != 3 || qr.Epoch != 2 {
		t.Errorf("post-retract answers/epoch = %v/%d, want 3 answers at epoch 2", answers, qr.Epoch)
	}

	// Noop batch: no epoch advance.
	status, fr, _ = postFacts(t, ts, `{"assert":["e(5,6)"],"retract":["e(8,9)"]}`)
	if status != http.StatusOK || fr.Epoch != 2 || fr.NoopAsserts != 1 || fr.NoopRetracts != 1 {
		t.Errorf("noop batch = %d %+v, want 200 at epoch 2 with both noops", status, fr)
	}
}

// TestFactsMaterializedMatchesScratch is the serving-layer differential: a
// mutated server answers identically through materializations and through
// from-scratch evaluation (-materialize=false), across strategies.
func TestFactsMaterializedMatchesScratch(t *testing.T) {
	batches := []string{
		`{"assert":["e(8,9)","e(9,10)"]}`,
		`{"retract":["e(6,7)"]}`,
		`{"assert":["e(6,7)","e(2,5)"],"retract":["e(1,2)"]}`,
	}
	for _, strategy := range []string{"semi-naive", "magic", "factored", "sup-magic"} {
		_, matTS := testServer(t, tcProgram, serve.Config{Strategy: strategy, Timeout: 5 * time.Second, Materialize: true})
		_, scratchTS := testServer(t, tcProgram, serve.Config{Strategy: strategy, Timeout: 5 * time.Second})
		for i, b := range batches {
			for _, ts := range []*httptest.Server{matTS, scratchTS} {
				if status, _, body := postFacts(t, ts, b); status != http.StatusOK {
					t.Fatalf("%s batch %d: status %d: %s", strategy, i, status, body)
				}
			}
			matAns, matQR := answersOf(t, matTS, "t(5,Y)", strategy)
			scratchAns, scratchQR := answersOf(t, scratchTS, "t(5,Y)", strategy)
			if !reflect.DeepEqual(matAns, scratchAns) {
				t.Errorf("%s batch %d: materialized %v != scratch %v", strategy, i, matAns, scratchAns)
			}
			if matQR.Epoch != scratchQR.Epoch {
				t.Errorf("%s batch %d: epochs diverge: %d vs %d", strategy, i, matQR.Epoch, scratchQR.Epoch)
			}
			if scratchQR.Materialized != "" {
				t.Errorf("%s batch %d: scratch server reported materialized=%q", strategy, i, scratchQR.Materialized)
			}
		}
	}
}

// TestFactsColdRestartEquivalence: answers after a mutation sequence equal
// those of a fresh server started with the mutated base as its program —
// the consistency guarantee docs/INCREMENTAL.md states.
func TestFactsColdRestartEquivalence(t *testing.T) {
	srv, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})
	for _, b := range []string{
		`{"assert":["e(8,9)","e(2,3)"]}`,
		`{"retract":["e(7,8)","e(1,2)"]}`,
	} {
		if status, _, body := postFacts(t, ts, b); status != http.StatusOK {
			t.Fatalf("batch: status %d: %s", status, body)
		}
	}
	liveAnswers, _ := answersOf(t, ts, "t(5,Y)", "magic")

	// Rebuild the program source from the mutated base.
	var cold strings.Builder
	cold.WriteString(`
t(X, Y) :- t(X, W), t(W, Y).
t(X, Y) :- e(X, W), t(W, Y).
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).
`)
	for _, f := range srv.Mat.BaseFacts() {
		fmt.Fprintf(&cold, "%s.\n", f)
	}
	_, coldTS := testServer(t, cold.String(), serve.Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})
	coldAnswers, _ := answersOf(t, coldTS, "t(5,Y)", "magic")
	if !reflect.DeepEqual(liveAnswers, coldAnswers) {
		t.Errorf("mutated server %v != cold restart %v", liveAnswers, coldAnswers)
	}
}

func TestFactsRejections(t *testing.T) {
	srv, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})

	// Wrong method. GET is the log-tailing read, so only other verbs 405.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/facts", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, POST" {
		t.Errorf("DELETE /facts = %d (Allow %q), want 405 with Allow: GET, POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// Tailing a server without a durable log is a client error.
	resp, err = http.Get(ts.URL + "/facts?since=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /facts?since=0 without -wal-dir = %d, want 400", resp.StatusCode)
	}

	// Malformed JSON, empty batch, unparseable atom.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"assert":["e(1,"]}`, http.StatusBadRequest},
		// Validation failures: non-ground and arity mismatch are 422.
		{`{"assert":["e(X,1)"]}`, http.StatusUnprocessableEntity},
		{`{"assert":["e(1,2,3)"]}`, http.StatusUnprocessableEntity},
	} {
		status, _, body := postFacts(t, ts, tc.body)
		if status != tc.want {
			t.Errorf("POST %s = %d, want %d (%s)", tc.body, status, tc.want, body)
		}
	}
	if srv.Mat.Epoch() != 0 {
		t.Errorf("rejected batches advanced the epoch to %d", srv.Mat.Epoch())
	}

	// Oversized body: 413.
	big := bytes.Repeat([]byte("x"), serve.MaxFactsBody+1)
	status, _, _ := postFacts(t, ts, fmt.Sprintf(`{"assert":["%s"]}`, big))
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", status)
	}

	// Draining: typed 503.
	srv.BeginDrain()
	status, _, body := postFacts(t, ts, `{"assert":["e(8,9)"]}`)
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"draining":true`) {
		t.Errorf("draining POST = %d: %s", status, body)
	}
}

func TestFactsMetricsAndHealth(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})
	answersOf(t, ts, "t(5,Y)", "magic")
	if status, _, body := postFacts(t, ts, `{"assert":["e(8,9)"],"retract":["e(1,2)","e(9,9)"]}`); status != http.StatusOK {
		t.Fatalf("mutation: %d %s", status, body)
	}
	answersOf(t, ts, "t(5,Y)", "magic")

	// JSON metrics: the one schema, mutation block populated.
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var stats obsv.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Schema != obsv.MetricsSchema {
		t.Errorf("schema = %q, want %q", stats.Schema, obsv.MetricsSchema)
	}
	m := stats.Mutation
	if m.Epoch != 1 || m.Batches != 1 || m.FactsAsserted != 1 || m.FactsRetracted != 1 || m.NoopRetracts != 1 {
		t.Errorf("mutation block = %+v, want epoch 1, 1 batch, 1/1 changes, 1 noop retract", m)
	}
	if m.Builds != 1 || m.Deltas != 1 || m.Entries != 1 {
		t.Errorf("refresh counters = builds %d deltas %d entries %d, want 1/1/1", m.Builds, m.Deltas, m.Entries)
	}

	// Prometheus exposition: parses strictly and carries the new families.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obsv.PromFamilies(string(prom))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, fam := range []string{
		"factorlog_epoch", "factorlog_base_facts", "factorlog_fact_batches_total",
		"factorlog_facts_asserted_total", "factorlog_facts_retracted_total",
		"factorlog_materializations", "factorlog_mat_refresh_hits_total",
		"factorlog_mat_refresh_deltas_total", "factorlog_mat_refresh_seconds",
		"factorlog_mat_change_ratio",
	} {
		if _, ok := fams[fam]; !ok {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	if !strings.Contains(string(prom), "factorlog_epoch 1") {
		t.Error("exposition does not report epoch 1")
	}

	// /healthz reports the live base size and epoch.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["base_facts"].(float64) != 4 || health["epoch"].(float64) != 1 {
		t.Errorf("healthz base_facts/epoch = %v/%v, want 4/1", health["base_facts"], health["epoch"])
	}
}

// TestFailedFactsLeaveQueryCounters: /facts batches are not queries — a
// rejected one moves neither factorlog_queries_total nor
// factorlog_query_errors_total.
func TestFailedFactsLeaveQueryCounters(t *testing.T) {
	_, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})
	if status, _, body := postFacts(t, ts, `{"assert":["e(X,1)"]}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("non-ground assert: status %d, want 422: %s", status, body)
	}
	if stats := serverMetrics(t, ts.URL); stats.Queries != 0 || stats.Errors != 0 {
		t.Errorf("queries/errors = %d/%d after a rejected batch, want 0/0", stats.Queries, stats.Errors)
	}
}
