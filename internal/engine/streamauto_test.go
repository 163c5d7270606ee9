package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/depgraph"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
	"factorlog/internal/trace"
)

// mixedProgram has every stratum shape the stratified schedule runs:
// layered non-recursive joins (s1, s2), a recursive stratum (tc over s1),
// and a non-recursive consumer of the recursion's output (top).
const mixedProgram = `
s1(X, Z) :- e(X, Y), f(Y, Z).
s2(X, Z) :- s1(X, Y), g(Y, Z).
tc(X, Y) :- s1(X, Y).
tc(X, Z) :- tc(X, Y), s1(Y, Z).
top(X, Z) :- tc(X, Y), s2(Y, Z).
`

func mixedDB(n int) *DB {
	db := NewDB()
	for i := 0; i < n; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("f", db.Store.Int(i+1), db.Store.Int(i+2))
		if i%2 == 0 {
			db.MustInsert("g", db.Store.Int(i+2), db.Store.Int(i))
		}
	}
	return db
}

func TestStreamAutoMatchesGlobalOnMixedProgram(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	global, strata := mixedDB(12), mixedDB(12)
	if _, err := Eval(prog, global, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := Eval(prog, strata, Options{Streaming: StreamAuto})
	if err != nil {
		t.Fatal(err)
	}
	diffDump(t, "StreamAuto", dumpLive(global), dumpLive(strata))
	if st := res.Stream; st == nil || st.Strata != 4 || st.Streamed != 3 || st.RowsEmitted == 0 {
		t.Errorf("stream stats = %+v, want 4 strata, 3 of them (s1, s2, top) one pass, with rows", st)
	}
}

// TestStreamAutoAnswersMatchQuery pins the answer-projection path end to end
// over a StreamAuto evaluation.
func TestStreamAutoAnswersMatchQuery(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	db := mixedDB(12)
	if _, err := Eval(prog, db, Options{Streaming: StreamAuto}); err != nil {
		t.Fatal(err)
	}
	answers, err := AnswerSet(db, ast.NewAtom("top", ast.V("X"), ast.V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers for top(X, Y)")
	}
	for ans := range answers {
		if !strings.HasPrefix(ans, "(") {
			t.Fatalf("unexpected answer shape %q", ans)
		}
	}
}

func TestStreamAutoBodylessAndEmptyRelations(t *testing.T) {
	prog := parser.MustParseProgram(`
seed(1, 2).
out(X, Y) :- seed(X, Y), missing(Y).
`)
	db := NewDB()
	res, err := Eval(prog, db, Options{Streaming: StreamAuto})
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("seed") != 1 {
		t.Errorf("seed count = %d, want 1 (a bodyless rule derives one row)", db.Count("seed"))
	}
	if db.Count("out") != 0 {
		t.Errorf("out count = %d, want 0 (empty body relation)", db.Count("out"))
	}
	if db.Lookup("missing") == nil {
		t.Error("body relation was not materialized")
	}
	if res.Stream.Streamed != 2 || res.Stats.Iterations != 2 {
		t.Errorf("streamed %d strata in %d iterations, want 2 and 2", res.Stream.Streamed, res.Stats.Iterations)
	}
}

func TestStreamAutoDuplicatesAreDistinct(t *testing.T) {
	// Both rules derive the same tuples; the relation keeps them once.
	prog := parser.MustParseProgram(`
d(X) :- e(X, Y).
d(Y) :- e(X, Y).
`)
	db := NewDB()
	a := db.Store.Const("a")
	db.MustInsert("e", a, a)
	db.MustInsert("e", a, db.Store.Const("b"))
	res, err := Eval(prog, db, Options{Streaming: StreamAuto})
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("d") != 2 {
		t.Errorf("d count = %d, want 2", db.Count("d"))
	}
	if res.Stream.RowsEmitted != 4 || res.Stream.Duplicates != 2 {
		t.Errorf("emitted/duplicates = %d/%d, want 4/2", res.Stream.RowsEmitted, res.Stream.Duplicates)
	}
}

// TestStreamAutoOptionValidation pins the one rule for StreamAuto's
// options (Options.stratified): out-of-domain values fail like any
// evaluation's, and Naive or Provenance runs ignore StreamAuto and run the
// global loop.
func TestStreamAutoOptionValidation(t *testing.T) {
	prog := parser.MustParseProgram(`d(X) :- e(X, X).`)
	for i, opts := range []Options{
		{Workers: -1},
		{MaxFacts: -1},
		{MaxIterations: -1},
		{MaxBytes: -1},
		{Streaming: StreamAuto + 1},
	} {
		if opts.Streaming == StreamOff {
			opts.Streaming = StreamAuto
		}
		if _, err := Eval(prog, NewDB(), opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d: err = %v, want ErrBadOptions", i, err)
		}
	}
	for _, opts := range []Options{
		{Strategy: Naive, Streaming: StreamAuto},
		{Provenance: true, Streaming: StreamAuto},
	} {
		res, err := Eval(prog, NewDB(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stream != nil {
			t.Errorf("%+v ran the stratified schedule", opts)
		}
	}
}

func TestStreamAutoBudgetsAndCancellation(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	opts := func(o Options) Options { o.Streaming = StreamAuto; return o }

	if _, err := Eval(prog, mixedDB(10), opts(Options{MaxFacts: 3})); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("MaxFacts: err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := Eval(prog, mixedDB(10), opts(Options{MaxBytes: 64})); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("MaxBytes: err = %v, want ErrMemoryBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eval(prog, mixedDB(10), opts(Options{Context: ctx})); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled ctx: err = %v, want ErrCanceled", err)
	}

	// MaxIterations bounds the recursive stratum's rounds.
	db := NewDB()
	for i := 0; i < 64; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
		db.MustInsert("f", db.Store.Int(i+1), db.Store.Int(i+2))
		db.MustInsert("g", db.Store.Int(i+2), db.Store.Int(i))
	}
	if _, err := Eval(prog, db, opts(Options{MaxIterations: 3})); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("MaxIterations: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestStreamAutoParallel(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	seq, par := mixedDB(16), mixedDB(16)
	want, err := Eval(prog, seq, Options{Streaming: StreamAuto})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(prog, par, Options{Streaming: StreamAuto, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	diffDump(t, "StreamAuto", dumpLive(seq), dumpLive(par))
	if got.Stats.Degraded {
		t.Error("parallel run degraded unexpectedly")
	}
	// One-pass strata see the same complete inputs at any worker count.
	if *got.Stream != *want.Stream {
		t.Errorf("Workers: 4 stream stats %+v, sequential %+v", *got.Stream, *want.Stream)
	}
}

// TestStreamAutoRandomizedDifferential fuzzes small random layered
// programs over a recursive tail against the global loop.
func TestStreamAutoRandomizedDifferential(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var b strings.Builder
			depth := 2 + seed%3
			b.WriteString("t0(X, Y) :- e0(X, Y).\n")
			for d := 1; d <= depth; d++ {
				fmt.Fprintf(&b, "t%d(X, Z) :- t%d(X, Y), e%d(Y, Z).\n", d, d-1, d)
			}
			fmt.Fprintf(&b, "rec(X, Y) :- t%d(X, Y).\nrec(X, Z) :- rec(X, Y), e0(Y, Z).\n", depth)
			prog := parser.MustParseProgram(b.String())

			global := NewDB()
			x := uint64(seed)*2654435761 + 1
			next := func(n int) int {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return int(x % uint64(n))
			}
			for d := 0; d <= depth; d++ {
				pred := fmt.Sprintf("e%d", d)
				for i := 0; i < 20; i++ {
					global.MustInsert(pred, global.Store.Int(next(12)), global.Store.Int(next(12)))
				}
			}
			strata := global.Clone()
			if _, err := Eval(prog, global, Options{}); err != nil {
				t.Fatal(err)
			}
			if _, err := Eval(prog, strata, Options{Streaming: StreamAuto}); err != nil {
				t.Fatal(err)
			}
			diffDump(t, "StreamAuto", dumpLive(global), dumpLive(strata))
		})
	}
}

// TestStreamAutoLayeredJoinProbes guards what one pass per non-recursive
// stratum buys on the layered joins: the global loop joins every layer in
// round 0 and again in a delta round that finds nothing new, so StreamAuto
// must take well under 2/3 of its join probes.
func TestStreamAutoLayeredJoinProbes(t *testing.T) {
	const stages, n = 4, 300
	var src strings.Builder
	src.WriteString("t1(X, Z) :- s0(X, Y), s1(Y, Z).\n")
	for k := 2; k <= stages; k++ {
		fmt.Fprintf(&src, "t%d(X, Z) :- t%d(X, Y), s%d(Y, Z).\n", k, k-1, k)
	}
	prog := parser.MustParseProgram(src.String())
	load := func() *DB {
		db := NewDB()
		for k := 0; k <= stages; k++ {
			for i := 0; i < n; i++ {
				db.MustInsert(fmt.Sprintf("s%d", k), db.Store.Int(i), db.Store.Int((i*7+k)%n))
			}
		}
		return db
	}
	probes := map[StreamMode]int{}
	dbs := map[StreamMode]*DB{}
	for _, mode := range []StreamMode{StreamOff, StreamAuto} {
		dbs[mode] = load()
		res, err := Eval(prog, dbs[mode], Options{Trace: true, Streaming: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range res.Stats.Rules {
			probes[mode] += rs.JoinProbes
		}
	}
	diffDump(t, "StreamAuto", dumpLive(dbs[StreamOff]), dumpLive(dbs[StreamAuto]))
	if probes[StreamAuto]*3 > probes[StreamOff]*2 {
		t.Errorf("StreamAuto probes = %d, StreamOff = %d: expected well under 2/3", probes[StreamAuto], probes[StreamOff])
	}
}

// TestStreamAutoChaos arms the storage, index and cancellation points the
// stratified schedule crosses on the mixed program and requires the chaos
// suite's invariants: every failure is a typed internal error, and every
// success derives exactly the baseline relations.
func TestStreamAutoChaos(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	baseline := mixedDB(14)
	if _, err := Eval(prog, baseline, Options{}); err != nil {
		t.Fatal(err)
	}
	points := []faultinject.Point{faultinject.ArenaGrow, faultinject.IndexProbe, faultinject.ContextCheck}
	for _, seed := range []uint64{1, 7, 42, 9001} {
		for _, maxPeriod := range []uint64{60, 900} {
			t.Run(fmt.Sprintf("seed=%d period<=%d", seed, maxPeriod), func(t *testing.T) {
				// Load the EDB before arming: setup is not under test.
				db := mixedDB(14)
				disable := faultinject.Enable(faultinject.Config{
					Seed: seed, MaxPeriod: maxPeriod, Points: points,
				})
				defer disable()
				res, err := Eval(prog, db, Options{Streaming: StreamAuto, Context: context.Background()})
				if err != nil {
					var pe *PanicError
					if !errors.Is(err, ErrInternal) || !errors.As(err, &pe) || len(pe.Stack) == 0 {
						t.Fatalf("untyped failure or no stack: %v", err)
					}
					return
				}
				if res.Stream.RowsEmitted == 0 {
					t.Fatal("successful run emitted nothing")
				}
				diffDump(t, "StreamAuto", dumpLive(baseline), dumpLive(db))
			})
		}
	}
}

// TestSpanTreeStratified checks the span tree of the stratified schedule,
// sequential and parallel: one stratum span per schedule stratum, rounds
// under strata, and one firing per rule of a one-pass stratum.
func TestSpanTreeStratified(t *testing.T) {
	prog := parser.MustParseProgram(mixedProgram)
	sched := depgraph.Analyze(prog)
	for _, opts := range []Options{{Streaming: StreamAuto}, {Streaming: StreamAuto, Workers: 3}} {
		tc := trace.New(trace.NewID())
		opts.Span = tc.Root()
		res, err := Eval(prog, mixedDB(8), opts)
		if err != nil {
			t.Fatal(err)
		}
		tc.Finish()
		var strata []*trace.Span
		for _, s := range tc.Root().Children() {
			switch s.Name {
			case "stratum":
				strata = append(strata, s)
			case "worker":
			default:
				t.Errorf("workers=%d: %s span under the evaluation", opts.Workers, s.Name)
			}
		}
		if len(strata) != len(sched.Strata) {
			t.Fatalf("workers=%d: %d stratum spans, want %d", opts.Workers, len(strata), len(sched.Strata))
		}
		for si, s := range strata {
			if s.Stratum != si {
				t.Errorf("workers=%d: stratum span %d is stratum %d", opts.Workers, si, s.Stratum)
			}
			for _, round := range s.Children() {
				if round.Name != "round" {
					t.Errorf("workers=%d: %s span under a stratum", opts.Workers, round.Name)
				}
			}
			if st := &sched.Strata[si]; !st.Recursive {
				for _, ri := range st.Rules {
					if f := res.Stats.Rules[ri].Firings; f != 1 {
						t.Errorf("workers=%d: one-pass rule %d fired %d times", opts.Workers, ri, f)
					}
				}
			}
		}
	}
}

func TestPlanRulesProbeKeys(t *testing.T) {
	plans, err := PlanRules(parser.MustParseProgram(`
p(X, Z) :- e(X, Y), f(Y, Z).
q(Y) :- p(5, Y).
`))
	if err != nil {
		t.Fatal(err)
	}
	render := func(p RulePlan) string {
		var parts []string
		for _, s := range p.Steps {
			if len(s.Probe) == 0 {
				parts = append(parts, "scan "+s.Literal)
			} else {
				parts = append(parts, fmt.Sprintf("probe %s %v [%s]", s.Literal, s.Probe, strings.Join(s.Keys, ", ")))
			}
		}
		return strings.Join(parts, "; ")
	}
	for i, want := range []string{
		"scan e(X,Y); probe f(Y,Z) [0] [col0=Y]",
		"probe p(5,Y) [0] [σ col0=5]",
	} {
		if got := render(plans[i]); got != want {
			t.Errorf("rule %d: %s, want %s", i, got, want)
		}
	}
}
