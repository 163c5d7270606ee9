package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"factorlog/internal/engine"
	"factorlog/internal/pipeline"
	"factorlog/internal/resilience"
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

func newTestServer(t *testing.T, materialize bool) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(tcProgram, "", Config{
		Strategy: "magic", Timeout: 5 * time.Second, Materialize: materialize,
		MaxConcurrency: 64, MaxQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Warmup()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery sends req as a POST /query body and decodes the answer part of
// the response: the body itself, or its result under explain=analyze.
func postQuery(t *testing.T, ts *httptest.Server, req Request) (answers []string, epoch int64, explain string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%+v: status %d", req, resp.StatusCode)
	}
	if req.Explain != "" {
		var body ExplainResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Result == nil {
			return nil, 0, body.Mode
		}
		return body.Result.Answers, body.Result.Epoch, body.Mode
	}
	var body Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Answers, body.Epoch, ""
}

// TestQueryMatchesHTTP drives Query in-process down every serving path
// and requires the answers and epoch the HTTP body reports for the same
// request, after a /facts batch has moved the base to epoch 1.
func TestQueryMatchesHTTP(t *testing.T) {
	for _, tc := range []struct {
		name         string
		materialize  bool
		req          Request
		materialized string // Materialized of the in-process (first) serve
	}{
		{"materialized build then hit", true, Request{Query: "t(5,Y)"}, "build"},
		{"scratch", false, Request{Query: "t(5,Y)", Strategy: "sup-magic"}, ""},
		{"auto", false, Request{Query: "t(5,Y)", Strategy: "auto"}, ""},
		{"auto materialized", true, Request{Query: "t(5,Y)", Strategy: "auto"}, "build"},
		{"stream", true, Request{Query: "t(5,Y)", Stream: true}, ""},
		{"explain plan", true, Request{Query: "t(5,Y)", Explain: "plan"}, ""},
		{"explain analyze", true, Request{Query: "t(5,Y)", Explain: "analyze", Workers: 2}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.materialize)
			if _, err := s.Facts(context.Background(), FactsRequest{Assert: []string{"e(8,9)."}}); err != nil {
				t.Fatal(err)
			}
			got, err := s.Query(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Explain != nil && got.Explain.Result != nil {
				got = *got.Explain.Result
			}
			if got.QueryID == "" || got.Materialized != tc.materialized {
				t.Errorf("in-process: query_id %q materialized %q, want an ID and %q", got.QueryID, got.Materialized, tc.materialized)
			}
			answers, epoch, mode := postQuery(t, ts, tc.req)
			if mode != tc.req.Explain {
				t.Errorf("HTTP explain mode %q, want %q", mode, tc.req.Explain)
			}
			if !reflect.DeepEqual(got.Answers, answers) || got.Epoch != epoch {
				t.Errorf("in-process %v at epoch %d, HTTP %v at epoch %d", got.Answers, got.Epoch, answers, epoch)
			}
			if tc.req.Explain != "plan" && (len(answers) != 4 || epoch != 1) {
				t.Errorf("answers %v at epoch %d, want 4 answers at epoch 1", answers, epoch)
			}
		})
	}
}

// TestStatus maps every typed error Query and Facts return to its status.
func TestStatus(t *testing.T) {
	drained, cancel := context.WithCancelCause(context.Background())
	cancel(ErrDraining)
	tooBig := fmt.Errorf("request body exceeds 1 bytes: %w", &http.MaxBytesError{Limit: 1})
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"auto unsupported", compileFailed(fmt.Errorf("%w: provenance", pipeline.ErrAutoUnsupported)), http.StatusBadRequest},
		{"deadline", fmt.Errorf("round 3: %w", engine.ErrDeadlineExceeded), http.StatusGatewayTimeout},
		{"cancel", fmt.Errorf("round 3: %w", engine.ErrCanceled), statusClientClosedRequest},
		{"draining cause", drainCause(drained, fmt.Errorf("round 3: %w", engine.ErrCanceled)), http.StatusServiceUnavailable},
		{"draining queue wait", drainCause(drained, fmt.Errorf("%w: x", resilience.ErrQueueWait)), http.StatusServiceUnavailable},
		{"budget", fmt.Errorf("%w: 10 facts", engine.ErrBudgetExceeded), http.StatusUnprocessableEntity},
		{"memory budget", fmt.Errorf("%w: 16 bytes", engine.ErrMemoryBudget), http.StatusUnprocessableEntity},
		{"bad options", fmt.Errorf("%w: workers -1", engine.ErrBadOptions), http.StatusBadRequest},
		{"internal", fmt.Errorf("%w: boom", engine.ErrInternal), http.StatusInternalServerError},
		{"internal compile", compileFailed(fmt.Errorf("%w: boom", engine.ErrInternal)), http.StatusInternalServerError},
		{"compile refutation", compileFailed(errors.New("not factorable")), http.StatusUnprocessableEntity},
		{"compile deadline", compileFailed(fmt.Errorf("%w", engine.ErrDeadlineExceeded)), http.StatusGatewayTimeout},
		{"shed", resilience.ErrShed, http.StatusTooManyRequests},
		{"queue wait", fmt.Errorf("%w: deadline", resilience.ErrQueueWait), http.StatusTooManyRequests},
		{"limiter closed", resilience.ErrLimiterClosed, http.StatusServiceUnavailable},
		{"mutation", fmt.Errorf("%w: non-ground", engine.ErrMutation), http.StatusUnprocessableEntity},
		{"body too large", tooBig, http.StatusRequestEntityTooLarge},
		{"bad request", badRequest(errors.New("missing query")), http.StatusBadRequest},
		{"method", methodNotAllowed(http.MethodPut), http.StatusMethodNotAllowed},
		{"untyped", errors.New("disk on fire"), http.StatusInternalServerError},
	} {
		if got := Status(tc.err); got != tc.want {
			t.Errorf("%s: Status(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestMarkedErrorsKeepMessages: tagging an error with its status class
// leaves the message clients see unchanged.
func TestMarkedErrorsKeepMessages(t *testing.T) {
	inner := errors.New("parse query: unexpected EOF")
	if got := badRequest(inner).Error(); got != inner.Error() {
		t.Errorf("badRequest message = %q", got)
	}
	if !errors.Is(compileFailed(inner), inner) {
		t.Error("compileFailed hides its cause from errors.Is")
	}
}
