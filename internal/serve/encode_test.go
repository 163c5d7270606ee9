package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"factorlog/internal/obsv"
	"factorlog/internal/pipeline"
)

// awkward holds strings encoding/json escapes, replaces or passes through
// in every way an answer can hold them, beside plain ones.
var awkward = []string{
	"", "(6)", "(a,b)", "('a b')", `('a<b"c')`, `('x\y')`, "('<>&')", "('it''s')",
	"('\x00')", "('\x1f\t\n\r')", "('\x7f')", "('é')", "('\u2028\u2029')",
	"('\xff')", "('\xc3')", "('\xed\xa0\x80')", "q-0a1b2c3d-42", "factored+opt",
}

// randomString draws a short string of bytes biased toward the ones
// encoding/json treats specially.
func randomString(r *rand.Rand) string {
	const special = "\x00\x01\x1f\"\\<>&'\x7f\x80\xc3\xa9\xe2\x80\xa8\xff a0("
	b := make([]byte, r.Intn(8))
	for i := range b {
		if r.Intn(2) == 0 {
			b[i] = special[r.Intn(len(special))]
		} else {
			b[i] = byte(r.Intn(256))
		}
	}
	return string(b)
}

func randomResponse(r *rand.Rand) Response {
	str := func() string {
		if r.Intn(3) == 0 {
			return randomString(r)
		}
		return awkward[r.Intn(len(awkward))]
	}
	num := func() int64 {
		switch r.Intn(3) {
		case 0:
			return 0
		case 1:
			return -r.Int63()
		}
		return r.Int63()
	}
	resp := Response{
		QueryID: str(), Query: str(), Strategy: str(),
		AnswerCount: int(num()), Facts: int(num()), Inferences: int(num()), Iterations: int(num()),
		PlanCache: str(), EvalWallNS: num(), TotalWallNS: num(), Epoch: num(),
		Degraded: r.Intn(2) == 0, Auto: r.Intn(2) == 0, Repicked: r.Intn(2) == 0,
	}
	switch r.Intn(4) {
	case 0: // nil: "answers":null
	case 1:
		resp.Answers = []string{}
	default:
		resp.Answers = make([]string, r.Intn(6))
		for i := range resp.Answers {
			resp.Answers[i] = str()
		}
	}
	if r.Intn(2) == 0 {
		resp.Materialized = str()
	}
	if r.Intn(2) == 0 {
		resp.RefreshWallNS = num()
	}
	if r.Intn(2) == 0 {
		resp.Executor = str()
	}
	if r.Intn(2) == 0 {
		resp.Stream = &obsv.StreamStats{Strata: int(num()), Streamed: int(num()),
			RowsEmitted: num(), Duplicates: num(), Pushdowns: int(num())}
	}
	if r.Intn(8) == 0 {
		resp.Explain = &ExplainResponse{Mode: "plan"} // json:"-": never encoded
	}
	return resp
}

// TestAppendResponseMatchesEncodingJSON: the /query encoder writes exactly
// what json.NewEncoder(w).Encode writes for the same Response, with the
// answers' JSON safety passed as decided (JSONPlain) and as unknown.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Every omitempty field, and both encodings of an answer-less list,
	// must show up both present and absent.
	keys := []string{`,"materialized":`, `,"refresh_wall_ns":`, `,"degraded":`, `,"executor":`,
		`,"stream":`, `,"auto":`, `,"repicked":`, `"answers":null`, `"answers":[]`}
	present, absent := map[string]bool{}, map[string]bool{}
	for i := 0; i < 5000; i++ {
		resp := randomResponse(r)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		plain := pipeline.JSONPlain(resp.Answers...)
		for _, p := range []bool{plain, false} {
			if got := appendResponse(nil, &resp, p); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("plain=%v, %#v:\n got %q\nwant %q", p, resp, got, want.Bytes())
			}
		}
		for _, key := range keys {
			if bytes.Contains(want.Bytes(), []byte(key)) {
				present[key] = true
			} else {
				absent[key] = true
			}
		}
	}
	for _, key := range keys {
		if !present[key] || !absent[key] {
			t.Errorf("%s: present %v, absent %v over the generated responses", key, present[key], absent[key])
		}
	}
}

// quotedProgram answers t(1,Y) with constants that print quoted and hold
// bytes encoding/json escapes.
const quotedProgram = `
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).

e(1, 'a<b"c').
e('a<b"c', 'é').
e(1, 'x\y').
e(1, 'it''s').
e(1, 'tab	and & >').
e(1, 2).
e(2, 3).
`

// TestQuotedAnswersOverHTTP: a materialized build and two hits of a query
// whose answers need JSON escaping decode to naive evaluation's answers,
// in the same order.
func TestQuotedAnswersOverHTTP(t *testing.T) {
	naive, err := New(quotedProgram, "", Config{Strategy: "naive", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { naive.Close() })
	want, err := naive.Query(context.Background(), Request{Query: "t(1,Y)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Answers) != 7 || pipeline.JSONPlain(want.Answers...) {
		t.Fatalf("naive answers %q: want 7, some needing escaping", want.Answers)
	}

	s, err := New(quotedProgram, "", Config{Strategy: "magic", Timeout: 5 * time.Second, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, kind := range []string{"build", "hit", "hit"} {
		resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"t(1,Y)"}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		var body Response
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if body.Materialized != kind || !reflect.DeepEqual(body.Answers, want.Answers) {
			t.Errorf("%s: read %s %q, naive %q", kind, body.Materialized, body.Answers, want.Answers)
		}
	}
}

// chainServer serves t(0,Y) over a chain of reach edges from 0, so the
// query has reach answers, and reads it over Handler until its entry keeps
// them.
func chainServer(tb testing.TB, reach int) (http.Handler, string) {
	tb.Helper()
	var src strings.Builder
	src.WriteString("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n")
	for i := 0; i < reach; i++ {
		fmt.Fprintf(&src, "e(%d, %d).\n", i, i+1)
	}
	s, err := New(src.String(), "", Config{Strategy: "factored+opt", Timeout: 5 * time.Second, Materialize: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	h, target := s.Handler(), "/query?"+url.Values{"q": {"t(0,Y)"}}.Encode()
	for _, kind := range []string{"build", "hit", "hit"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var body Response
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			tb.Fatal(err)
		}
		if body.Materialized != kind || len(body.Answers) != reach {
			tb.Fatalf("reach %d: %s with %d answers, want %s", reach, body.Materialized, len(body.Answers), kind)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			tb.Fatalf("reach %d: Content-Length %s for %d bytes", reach, got, rec.Body.Len())
		}
	}
	return h, target
}

// TestQueryHitAllocsFlatHTTP: a hit served through Handler — decode,
// admission, the kept list, the encoder — allocates as often at reach 1000
// as at reach 10.
func TestQueryHitAllocsFlatHTTP(t *testing.T) {
	allocs := map[int]float64{}
	for _, reach := range []int{10, 1000} {
		h, target := chainServer(t, reach)
		allocs[reach] = testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		})
	}
	if allocs[10] != allocs[1000] {
		t.Errorf("allocations per hit over HTTP: %v at reach 10, %v at reach 1000", allocs[10], allocs[1000])
	}
}

func BenchmarkQueryHitHTTP(b *testing.B) {
	for _, reach := range []int{10, 1000} {
		b.Run(fmt.Sprintf("reach=%d", reach), func(b *testing.B) {
			h, target := chainServer(b, reach)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			}
		})
	}
}
