package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// This file tests the sorted answers a materialized read returns and the
// list an entry keeps for its hits.

// naiveSorted is the oracle for a sorted read: naive evaluation of p over
// base, its answer set sorted.
func naiveSorted(t *testing.T, p *ast.Program, query ast.Atom, base []ast.Atom) []string {
	t.Helper()
	return SortedAnswers(&RunResult{Answers: scratchAnswers(t, p, query, Naive, base, 1)})
}

// TestKeptAnswersMatchNaive walks one entry through every refresh kind —
// a build, hits, a delta, a rebuild forced by a trimmed log (one yielding
// no facts, one yielding some), an eviction and re-build, and refreshes
// failed by the MatRefresh fault and by a deadline — reading twice after
// each, so a hit keeps the list and the next one returns it. Every read
// must equal naive evaluation at its epoch; a list kept across any
// refresh but a hit reads stale answers here. The answers are numbers, so
// a kept list is plain (JSONPlain); its flag must be set exactly while the
// entry keeps it.
func TestKeptAnswersMatchNaive(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query, other := mustAtom(t, "t(1, Y)"), mustAtom(t, "t(2, Y)")
	for _, s := range []Strategy{SemiNaive, FactoredOptimized, Counting} {
		t.Run(s.String(), func(t *testing.T) {
			m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}, [2]int{2, 3}), nil,
				MaterializerOptions{Entries: 1, LogLimit: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			read := func(stage, kind string) {
				t.Helper()
				res, err := m.Read(ctx, query, s)
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if res.Kind != kind || res.Epoch != m.Epoch() {
					t.Errorf("%s: %s at epoch %d, want %s at %d", stage, res.Kind, res.Epoch, kind, m.Epoch())
				}
				if want := naiveSorted(t, p, query, m.BaseFacts()); !slices.Equal(res.Sorted, want) {
					t.Errorf("%s (%s): read %q, naive %q", stage, res.Kind, res.Sorted, want)
				}
				if res.Sorted == nil {
					t.Errorf("%s (%s): nil answers", stage, res.Kind)
				}
				e := m.entries[matKey{query.CanonicalKey(), s}]
				if kept := e.sorted != nil; kept != (kind == "hit") || e.plain != kept || res.Plain != kept {
					t.Errorf("%s (%s): kept %v, entry plain %v, read plain %v", stage, res.Kind, kept, e.plain, res.Plain)
				}
			}
			// hits reads twice at an unchanged state: the first hit keeps
			// the list, the second returns it.
			hits := func(stage string) {
				t.Helper()
				read(stage+", hit", "hit")
				read(stage+", kept hit", "hit")
			}
			apply := func(assert, retract []ast.Atom) {
				t.Helper()
				if _, err := m.Apply(assert, retract); err != nil {
					t.Fatal(err)
				}
			}

			read("build", "build")
			hits("build")

			apply(edgeAtoms(t, [2]int{3, 4}), nil)
			read("delta", "delta")
			hits("delta")

			// Three batches past a log of two, none durable: a rebuild, the
			// first over a base with no edges at all.
			apply(nil, edgeAtoms(t, [2]int{1, 2}))
			apply(nil, edgeAtoms(t, [2]int{2, 3}))
			apply(nil, edgeAtoms(t, [2]int{3, 4}))
			read("empty rebuild", "rebuild")
			hits("empty rebuild")
			apply(edgeAtoms(t, [2]int{1, 5}), nil)
			apply(edgeAtoms(t, [2]int{5, 6}), nil)
			apply(edgeAtoms(t, [2]int{6, 7}), nil)
			read("rebuild", "rebuild")
			hits("rebuild")

			// One entry only: reading another shape evicts this one.
			if _, err := m.Read(ctx, other, s); err != nil {
				t.Fatal(err)
			}
			apply(edgeAtoms(t, [2]int{7, 8}), nil)
			read("re-build", "build")
			hits("re-build")

			// A faulted refresh fails before it changes anything; the entry
			// catches up on the next read.
			apply(edgeAtoms(t, [2]int{1, 9}), nil)
			disable := faultinject.Enable(faultinject.Config{
				Seed: 7, MaxPeriod: 1, Points: []faultinject.Point{faultinject.MatRefresh},
			})
			_, err = m.Read(ctx, query, s)
			disable()
			if !errors.Is(err, engine.ErrInternal) {
				t.Fatalf("faulted read: err = %v, want ErrInternal", err)
			}
			if e := m.entries[matKey{query.CanonicalKey(), s}]; e.sorted != nil || e.plain {
				t.Errorf("faulted read kept %q, plain %v", e.sorted, e.plain)
			}
			read("after a fault", "delta")
			hits("after a fault")

			// A refresh past its deadline fails; the next read recovers.
			apply(nil, edgeAtoms(t, [2]int{5, 6}))
			expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
			_, err = m.Read(expired, query, s)
			cancel()
			if !errors.Is(err, engine.ErrDeadlineExceeded) {
				t.Fatalf("read past its deadline: err = %v, want ErrDeadlineExceeded", err)
			}
			res, err := m.Read(ctx, query, s)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveSorted(t, p, query, m.BaseFacts()); res.Kind == "hit" || !slices.Equal(res.Sorted, want) {
				t.Errorf("after a deadline (%s): read %q, naive %q", res.Kind, res.Sorted, want)
			}
			hits("after a deadline")
		})
	}
}

// TestKeptAnswersDroppedByAFailedRefresh: a refresh that replays part of
// its batches and then fails leaves its entry clean at an epoch between
// the two, and a reader that pinned that epoch before the failed refresh
// took the entry then reads a hit. That hit must render the entry's new
// state, not the list an earlier hit kept.
func TestKeptAnswersDroppedByAFailedRefresh(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	for _, s := range []Strategy{SemiNaive, FactoredOptimized, Counting} {
		t.Run(s.String(), func(t *testing.T) {
			m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil, MaterializerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; i < 3; i++ { // build, then a hit that keeps the list
				if _, err := m.Read(ctx, query, s); err != nil {
					t.Fatal(err)
				}
			}
			pin := func(assert []ast.Atom) (*engine.Version, []MutationBatch) {
				if _, err := m.Apply(assert, nil); err != nil {
					t.Fatal(err)
				}
				m.mu.Lock()
				defer m.mu.Unlock()
				return m.base.Current(), m.log
			}
			v1, log1 := pin(edgeAtoms(t, [2]int{2, 3}))
			v2, log2 := pin(edgeAtoms(t, [2]int{3, 4}))
			e := m.entries[matKey{query.CanonicalKey(), s}]

			// The second batch fails validation before it changes anything.
			bad := []MutationBatch{log2[0], {Epoch: v2.Epoch(), Assert: matFacts(t, "e(1, 2, 3)")}}
			if _, err := m.read(ctx, e, v2, bad); !errors.Is(err, engine.ErrMutation) {
				t.Fatalf("refresh over a bad batch: err = %v, want ErrMutation", err)
			}
			if e.sorted != nil || e.plain {
				t.Errorf("failed refresh kept %q, plain %v", e.sorted, e.plain)
			}
			if e.mat.Epoch() != v1.Epoch() || e.mat.Dirty() {
				t.Fatalf("failed refresh left the entry at epoch %d (dirty %v), want clean at %d",
					e.mat.Epoch(), e.mat.Dirty(), v1.Epoch())
			}
			res, err := m.read(ctx, e, v1, log1)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveSorted(t, p, query, v1.Atoms()); res.Kind != "hit" || !slices.Equal(res.Sorted, want) {
				t.Errorf("%s at epoch %d: read %q, naive %q", res.Kind, res.Epoch, res.Sorted, want)
			}
		})
	}
}

// TestKeptListNotPlainWithEscapedAnswer: a kept list with an answer
// encoding/json must escape is kept with its flag false, on every hit.
func TestKeptListNotPlainWithEscapedAnswer(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(x, y string) ast.Atom { return ast.Atom{Pred: "e", Args: []ast.Term{ast.C(x), ast.C(y)}} }
	query := mustAtom(t, "t(1, Y)")
	for _, odd := range []string{`a<b"c`, "é", `x\y`, "tab\t", "\u2028", "\xff"} {
		m, err := NewMaterializer(p, nil, []ast.Atom{edge("1", "2"), edge("2", odd)}, nil, MaterializerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"build", "hit", "hit"} {
			res, err := m.Read(context.Background(), query, FactoredOptimized)
			if err != nil {
				t.Fatal(err)
			}
			e := m.entries[matKey{query.CanonicalKey(), FactoredOptimized}]
			if res.Kind != kind || len(res.Sorted) != 2 || res.Plain || e.plain || (kind == "hit") != (e.sorted != nil) {
				t.Errorf("%q: %s %q, read plain %v, entry plain %v, kept %v", odd, res.Kind, res.Sorted, res.Plain, e.plain, e.sorted != nil)
			}
		}
	}
}

// TestJSONPlain: a plain string encodes as itself between quotes, and each
// class of byte encoding/json escapes or replaces makes a string not plain.
func TestJSONPlain(t *testing.T) {
	for _, s := range []string{"", "(6)", "('a b')", "('it''s')", "q-0a1b2c3d-42", "~\x7f"} {
		if b, _ := json.Marshal(s); !JSONPlain(s) || string(b) != `"`+s+`"` {
			t.Errorf("%q: JSONPlain %v, encodes %s", s, JSONPlain(s), b)
		}
	}
	for _, s := range []string{"\x00", "\x1f", "\t", `"`, `\`, "<", ">", "&", "é", "\u2028", "\u2029", "\xff", "\xc3"} {
		if JSONPlain("(6)", "(a"+s+"b)") {
			t.Errorf("%q: JSONPlain", s)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		b := make([]byte, r.Intn(6))
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		if s := string(b); JSONPlain(s) {
			if enc, _ := json.Marshal(s); string(enc) != `"`+s+`"` {
				t.Fatalf("%q is plain but encodes %s", s, enc)
			}
		}
	}
}

// TestKeptAnswersHitsUnderWrites: four readers read hits and JSON-encode
// them while a writer applies random assert/retract batches. Every
// response must be exactly naive evaluation's answers at the epoch it
// reports. Under -race this checks that a kept list is never written once
// shared.
func TestKeptAnswersHitsUnderWrites(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 8
	var initial []ast.Atom
	for i := 1; i < nodes; i++ {
		initial = append(initial, mustAtom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	model := newEpochModel(0, initial)
	m, err := NewMaterializer(p, nil, initial, nil, MaterializerOptions{Durable: &modelLog{model: model}})
	if err != nil {
		t.Fatal(err)
	}
	queries := []ast.Atom{mustAtom(t, "t(1, Y)"), mustAtom(t, "t(3, Y)")}

	type response struct {
		query int
		epoch int64
		body  []byte
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		responses []response
		writing   = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writing)
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 30; i++ {
			assert, retract := forwardEdgeBatch(r, nodes)
			if _, err := m.Apply(assert, retract); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-writing:
					return
				default:
				}
				q := (g + i) % len(queries)
				res, err := m.Read(context.Background(), queries[q], FactoredOptimized)
				if err != nil {
					t.Errorf("Read: %v", err)
					return
				}
				body, err := json.Marshal(res.Sorted)
				if err != nil {
					t.Errorf("encode: %v", err)
					return
				}
				mu.Lock()
				responses = append(responses, response{q, res.Epoch, body})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	oracle := map[[2]int64][]byte{}
	for _, r := range responses {
		key := [2]int64{int64(r.query), r.epoch}
		want, ok := oracle[key]
		if !ok {
			facts, known := model.factsAt(r.epoch)
			if !known {
				t.Fatalf("a read reported epoch %d, which was never committed", r.epoch)
			}
			if want, err = json.Marshal(naiveSorted(t, p, queries[r.query], facts)); err != nil {
				t.Fatal(err)
			}
			oracle[key] = want
		}
		if string(r.body) != string(want) {
			t.Fatalf("%s at epoch %d: read %s, naive %s", queries[r.query], r.epoch, r.body, want)
		}
	}
	st := m.Stats()
	t.Logf("%d responses: %d hits, %d deltas", len(responses), st.Hits, st.Deltas)
	if st.Hits == 0 || st.Deltas == 0 {
		t.Errorf("reads were not exercised: %d hits, %d deltas over %d responses", st.Hits, st.Deltas, len(responses))
	}
}

// chainMaterializer serves t(0, Y) over a chain of reach edges from 0, so
// the query has reach answers, and reads it until its entry keeps them.
func chainMaterializer(tb testing.TB, reach int) (*Materializer, ast.Atom) {
	tb.Helper()
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		tb.Fatal(err)
	}
	edges := make([]ast.Atom, reach)
	for i := range edges {
		edges[i] = ast.Atom{Pred: "e", Args: []ast.Term{ast.C(fmt.Sprint(i)), ast.C(fmt.Sprint(i + 1))}}
	}
	m, err := NewMaterializer(p, nil, edges, nil, MaterializerOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	query := ast.Atom{Pred: "t", Args: []ast.Term{ast.C("0"), ast.V("Y")}}
	for i := 0; i < 2; i++ {
		res, err := m.Read(context.Background(), query, FactoredOptimized)
		if err != nil {
			tb.Fatal(err)
		}
		if len(res.Sorted) != reach {
			tb.Fatalf("reach %d: %d answers", reach, len(res.Sorted))
		}
	}
	return m, query
}

// TestMaterializedHitAllocsFlat: a hit returns the kept list itself — two
// hits share one backing array — so its allocations do not grow with the
// number of answers.
func TestMaterializedHitAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, reach := range []int{10, 1000} {
		m, query := chainMaterializer(t, reach)
		ctx := context.Background()
		a, err := m.Read(ctx, query, FactoredOptimized)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Read(ctx, query, FactoredOptimized)
		if err != nil {
			t.Fatal(err)
		}
		if a.Kind != "hit" || b.Kind != "hit" || &a.Sorted[0] != &b.Sorted[0] {
			t.Errorf("reach %d: %s then %s, sharing a backing array: %v",
				reach, a.Kind, b.Kind, &a.Sorted[0] == &b.Sorted[0])
		}
		allocs[reach] = testing.AllocsPerRun(50, func() {
			if _, err := m.Read(ctx, query, FactoredOptimized); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[10] != allocs[1000] {
		t.Errorf("allocations per hit: %v at reach 10, %v at reach 1000", allocs[10], allocs[1000])
	}
}

func BenchmarkMaterializedHit(b *testing.B) {
	for _, reach := range []int{10, 1000} {
		b.Run(fmt.Sprintf("reach=%d", reach), func(b *testing.B) {
			m, query := chainMaterializer(b, reach)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Read(ctx, query, FactoredOptimized); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
