package main

import (
	"factorlog/internal/serve"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// longChainProgram is a right-linear closure over a chain 0 → 1 → … → n-1.
// Under magic, t(0,Y) derives every t(i,j) with i<j — quadratic in n — while
// t(k,Y) for k near the end derives a handful of facts.
func longChainProgram(n int) string {
	var b strings.Builder
	b.WriteString("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n")
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(%d, %d).\n", i, i+1)
	}
	return b.String()
}

// TestMaterializedBuildHonorsDeadline: a materialization build stops at the
// request's deadline with a 504, the half-built entry is discarded, and the
// next request for the same shape builds it again — and is the one build
// the metrics count.
func TestMaterializedBuildHonorsDeadline(t *testing.T) {
	const n = 600
	_, ts := testServer(t, longChainProgram(n), serve.Config{Strategy: "magic", Timeout: time.Minute, Materialize: true})
	params := url.Values{"q": {"t(0,Y)"}}

	// Compile the plan first, so the deadline below lands in the build.
	if resp, body := getBody(t, ts.URL+"/query?q=t(0,Y)&explain=plan"); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain=plan: status %d: %s", resp.StatusCode, body)
	}
	params.Set("timeout_ms", "5")
	status, _, body := getQuery(t, ts, params)
	if status != http.StatusGatewayTimeout || !strings.Contains(body, "deadline") {
		t.Fatalf("build under a 5 ms deadline: status %d, want 504 naming the deadline: %s", status, body)
	}
	if builds := serverMetrics(t, ts.URL).Mutation.Builds; builds != 0 {
		t.Errorf("a build that hit its deadline was counted: %d builds", builds)
	}

	params.Del("timeout_ms")
	status, qr, body := getQuery(t, ts, params)
	if status != http.StatusOK {
		t.Fatalf("rebuild without the deadline: status %d: %s", status, body)
	}
	if qr.Materialized != "build" || qr.AnswerCount != n-1 {
		t.Errorf("after the discarded build: materialized=%q with %d answers, want a fresh build with %d",
			qr.Materialized, qr.AnswerCount, n-1)
	}
	if status, qr, _ = getQuery(t, ts, params); status != http.StatusOK || qr.Materialized != "hit" {
		t.Errorf("third request: status %d materialized=%q, want a hit", status, qr.Materialized)
	}
	if builds := serverMetrics(t, ts.URL).Mutation.Builds; builds != 1 {
		t.Errorf("%d builds counted, want 1", builds)
	}
}

// TestSlowBuildBlocksNobodyElse: while one entry's build runs (here: until
// its deadline — the closure is far too large to finish), a build of
// another entry, a hit on it, and a /facts batch all complete. The magic
// closure from t(0,Y) derives n²/2 facts: over a 4000-node chain, about
// 8 million, which an unloaded 2-CPU machine can finish in under the 5 s
// deadline; 6000 nodes, about 18 million, cannot.
func TestSlowBuildBlocksNobodyElse(t *testing.T) {
	const n = 6000
	_, ts := testServer(t, longChainProgram(n), serve.Config{Strategy: "magic", Timeout: time.Minute, Materialize: true})

	slowDone := make(chan int, 1)
	go func() {
		status, _, _ := getQuery(t, ts, url.Values{"q": {"t(0,Y)"}, "timeout_ms": {"5000"}})
		slowDone <- status
	}()
	// Let the slow build get going before asking for anything else.
	time.Sleep(200 * time.Millisecond)

	quick := url.Values{"q": {fmt.Sprintf("t(%d,Y)", n-5)}, "strategy": {"factored+opt"}}
	for _, want := range []string{"build", "hit"} {
		status, qr, body := getQuery(t, ts, quick)
		if status != http.StatusOK || qr.Materialized != want || qr.AnswerCount != 4 {
			t.Fatalf("quick query: status %d materialized=%q answers=%d, want 200 %s 4: %s",
				status, qr.Materialized, qr.AnswerCount, want, body)
		}
	}
	if status, fr, body := postFacts(t, ts, fmt.Sprintf(`{"assert":["e(%d,%d)."]}`, n-1, n)); status != http.StatusOK || fr.Epoch != 1 {
		t.Fatalf("/facts during the slow build: status %d epoch %d: %s", status, fr.Epoch, body)
	}
	status, qr, _ := getQuery(t, ts, quick)
	if status != http.StatusOK || qr.Materialized != "delta" || qr.AnswerCount != 5 || qr.Epoch != 1 {
		t.Fatalf("quick query after the batch: status %d %+v", status, qr)
	}
	select {
	case status := <-slowDone:
		t.Fatalf("the slow build was over (status %d) before the others finished: nothing ran beside it", status)
	default:
	}
	if status := <-slowDone; status != http.StatusGatewayTimeout {
		t.Errorf("slow build: status %d, want 504 at its deadline", status)
	}
}

// TestScratchQueriesPinOneEpoch: with materialized serving off, a request
// evaluates over the image version it pinned — it reports that epoch and
// exactly that epoch's answers, whatever /facts publishes meanwhile — and
// the column index its evaluation builds on a shared relation is there for
// the next request.
func TestScratchQueriesPinOneEpoch(t *testing.T) {
	s, ts := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: time.Minute, Materialize: false})
	if s.Mat.Version().Relation("e").HasIndex([]int{0}) {
		t.Fatal("the base relation is indexed before any query ran")
	}
	if answers, _ := answersOf(t, ts, "t(5,Y)", "magic"); len(answers) != 3 {
		t.Fatalf("t(5,Y) = %v", answers)
	}
	if !s.Mat.Version().Relation("e").HasIndex([]int{0}) {
		t.Error("the index the first request built on e was not kept with the image")
	}

	// Epoch k has appended e(7+k, 8+k): t(5,Y) has 3+k answers at epoch k.
	const batches = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= batches; k++ {
			if status, _, body := postFacts(t, ts, fmt.Sprintf(`{"assert":["e(%d,%d)."]}`, 7+k, 8+k)); status != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", k, status, body)
				return
			}
		}
	}()
	strategies := []string{"magic", "factored+opt", "semi-naive", "tabled", "sup-magic"}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < 30; i++ {
				params := url.Values{"q": {"t(5,Y)"}, "strategy": {strategies[(i+g)%len(strategies)]}}
				if i%4 == 0 {
					params.Set("workers", "2")
				}
				if i%5 == 0 {
					params.Set("stream", "1")
				}
				status, qr, body := getQuery(t, ts, params)
				if status != http.StatusOK {
					t.Errorf("%v: status %d: %s", params, status, body)
					return
				}
				if qr.AnswerCount != 3+int(qr.Epoch) {
					t.Errorf("%v: %d answers at epoch %d, want %d", params, qr.AnswerCount, qr.Epoch, 3+qr.Epoch)
				}
				if qr.Epoch < last {
					t.Errorf("epoch went back from %d to %d on one connection", last, qr.Epoch)
				}
				last = qr.Epoch
			}
		}(g)
	}
	wg.Wait()
	if _, qr := answersOf(t, ts, "t(5,Y)", "magic"); qr.Epoch != batches || qr.AnswerCount != 3+batches {
		t.Errorf("after the writer: epoch %d with %d answers", qr.Epoch, qr.AnswerCount)
	}
}
