package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"factorlog/internal/obsv"
	"factorlog/internal/serve"
)

// chainProgram is linear transitive closure over a tiny seed chain — the
// shape whose optimal strategy flips from semi-naive (tiny EDB) to a
// factored rewrite (long chain) as facts arrive.
const chainProgram = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).

e(1, 2).
e(2, 3).
e(3, 4).

?- tc(1, Y).
`

func TestQueryStrategyAuto(t *testing.T) {
	_, ts := testServer(t, chainProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})

	status, qr, body := getQuery(t, ts, url.Values{"q": {"tc(1,Y)"}, "strategy": {"auto"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !qr.Auto {
		t.Error("response not marked auto")
	}
	if qr.Strategy == "auto" || qr.Strategy == "" {
		t.Errorf("strategy = %q, want the optimizer's concrete pick", qr.Strategy)
	}
	if qr.AnswerCount != 3 {
		t.Errorf("answers = %v, want 3 chain successors", qr.Answers)
	}

	// The remembered decision serves the repeat from the plan cache.
	status, qr, body = getQuery(t, ts, url.Values{"q": {"tc(1,Y)"}, "strategy": {"auto"}})
	if status != http.StatusOK {
		t.Fatalf("repeat status %d: %s", status, body)
	}
	if qr.PlanCache != "hit" {
		t.Errorf("repeat plan_cache = %q, want hit", qr.PlanCache)
	}
	if qr.Repicked {
		t.Error("repeat without mutations reported a repick")
	}
}

func TestQueryAutoMaterialized(t *testing.T) {
	_, ts := testServer(t, chainProgram, serve.Config{
		Strategy: "magic", Timeout: 5 * time.Second, Materialize: true,
	})
	status, qr, body := getQuery(t, ts, url.Values{"q": {"tc(1,Y)"}, "strategy": {"auto"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !qr.Auto || qr.Materialized == "" {
		t.Errorf("auto=%v materialized=%q, want auto-served materialization", qr.Auto, qr.Materialized)
	}
	if qr.AnswerCount != 3 {
		t.Errorf("answers = %v", qr.Answers)
	}
}

func TestQueryAutoExplainPlanCandidates(t *testing.T) {
	_, ts := testServer(t, chainProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	resp, err := http.Get(ts.URL + "/query?" + url.Values{
		"q": {"tc(1,Y)"}, "strategy": {"auto"}, "explain": {"plan"},
	}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er serve.ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if er.Plan == nil || len(er.Plan.Candidates) == 0 {
		t.Fatalf("explain=plan with auto carries no candidate table: %s", body)
	}
	chosen := 0
	for _, c := range er.Plan.Candidates {
		if c.Chosen {
			chosen++
			if c.Strategy != er.Plan.Strategy {
				t.Errorf("chosen candidate %s != plan strategy %s", c.Strategy, er.Plan.Strategy)
			}
		}
	}
	if chosen != 1 {
		t.Errorf("%d chosen candidates, want 1", chosen)
	}
}

// A large /facts batch flips the EDB's shape; the change-ratio trigger must
// re-cost the remembered decision and re-pick an arity-reduced plan, and the
// v9 metrics must report the episode.
func TestAutoRepickAfterFactsSkewFlip(t *testing.T) {
	_, ts := testServer(t, chainProgram, serve.Config{Strategy: "magic", Timeout: 10 * time.Second})

	status, first, body := getQuery(t, ts, url.Values{"q": {"tc(1,Y)"}, "strategy": {"auto"}})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	// Assert a 2000-edge chain: mutations/base >> the re-cost ratio.
	var batch serve.FactsRequest
	for i := 4; i <= 2000; i++ {
		batch.Assert = append(batch.Assert, fmtEdge(i, i+1))
	}
	buf, _ := json.Marshal(batch)
	resp, err := http.Post(ts.URL+"/facts", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/facts status %d", resp.StatusCode)
	}

	status, flipped, body := getQuery(t, ts, url.Values{"q": {"tc(1,Y)"}, "strategy": {"auto"}})
	if status != http.StatusOK {
		t.Fatalf("post-flip status %d: %s", status, body)
	}
	if !flipped.Repicked {
		t.Errorf("post-flip response not marked repicked (strategy %s -> %s)",
			first.Strategy, flipped.Strategy)
	}
	if flipped.Strategy == first.Strategy {
		t.Errorf("strategy unchanged (%s) after skew flip", flipped.Strategy)
	}
	if flipped.AnswerCount != 2000 {
		t.Errorf("post-flip answers = %d, want 2000", flipped.AnswerCount)
	}

	// /metrics: the episode shows in plan_search, and the planner's
	// Prometheus families present.
	mresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var doc struct {
		Schema     string `json:"schema"`
		PlanSearch struct {
			Picks   int64 `json:"picks"`
			Recosts int64 `json:"recosts"`
			Repicks int64 `json:"repicks"`
		} `json:"plan_search"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != obsv.MetricsSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, obsv.MetricsSchema)
	}
	if doc.PlanSearch.Picks < 1 || doc.PlanSearch.Recosts < 1 || doc.PlanSearch.Repicks < 1 {
		t.Errorf("plan_search = %+v, want at least one pick, recost, and repick", doc.PlanSearch)
	}

	presp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	prom, _ := io.ReadAll(presp.Body)
	for _, family := range []string{
		"factorlog_autoplan_picks", "factorlog_autoplan_recosts",
		"factorlog_autoplan_repicks", "factorlog_autoplan_wins",
		"factorlog_plan_recost_seconds",
	} {
		if !strings.Contains(string(prom), family) {
			t.Errorf("prometheus exposition missing %s", family)
		}
	}
}

func fmtEdge(a, b int) string {
	return "e(" + itoa(a) + ", " + itoa(b) + ")"
}

func itoa(n int) string {
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
