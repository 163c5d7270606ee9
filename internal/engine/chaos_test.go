package engine

import (
	"errors"
	"fmt"
	"testing"

	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// TestChaos is the deterministic chaos suite: with every injection point
// armed at seed-derived rates, evaluations across all worker counts and
// both schedules must
// (1) never crash the process — every failure is a typed error, (2) never
// deadlock — the suite finishing is the assertion, bounded by go test's
// timeout, and (3) produce exactly the baseline answers whenever they
// succeed, whether or not faults fired along the way (success after a
// worker panic means the sequential retry completed the fixpoint).
//
// Seeds are fixed so CI failures reproduce exactly: the per-point firing
// period is a pure function of (seed, point) and the call counters.
func TestChaos(t *testing.T) {
	const n = 20
	baseline, err := tcAnswerSet(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseAtom("t(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	allPoints := []faultinject.Point{
		faultinject.ArenaGrow, faultinject.WorkerStart, faultinject.IndexProbe,
		faultinject.PlanCompile, faultinject.ContextCheck,
	}
	seeds := []uint64{1, 2, 3, 42, 12345}
	// Every worker count, then the stratified schedule sequential and
	// parallel; new inputs go last, so the runs before them keep their
	// fault schedules.
	inputs := []Options{
		{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 8},
		{Streaming: StreamAuto}, {Streaming: StreamAuto, Workers: 3},
	}

	for _, seed := range seeds {
		for _, maxPeriod := range []uint64{25, 400} {
			t.Run(fmt.Sprintf("seed=%d period<=%d", seed, maxPeriod), func(t *testing.T) {
				// Build every EDB before arming: fact loading here is test
				// setup, not the system under test.
				dbs := make([]*DB, len(inputs))
				for i := range inputs {
					dbs[i] = chainDB(n)
				}
				disable := faultinject.Enable(faultinject.Config{
					Seed: seed, MaxPeriod: maxPeriod, Points: allPoints,
				})
				defer disable()

				for i, opts := range inputs {
					label := fmt.Sprintf("workers=%d stream=%v", opts.Workers, opts.Streaming)
					firedBefore := faultinject.TotalFired()
					res, err := Eval(tcProgram(), dbs[i], opts)
					if err != nil {
						// Never-crash: the only acceptable failure is the
						// typed internal error from a recovery barrier.
						if !errors.Is(err, ErrInternal) {
							t.Fatalf("%s: untyped failure %v", label, err)
						}
						var pe *PanicError
						if !errors.As(err, &pe) || len(pe.Stack) == 0 {
							t.Fatalf("%s: internal error without stack: %v", label, err)
						}
						continue
					}
					// Success must mean correct answers — even when faults
					// fired and the run degraded to the sequential retry.
					got, aerr := AnswerSet(dbs[i], q)
					if aerr != nil {
						t.Fatalf("%s: answer read-back: %v", label, aerr)
					}
					if !sameSet(got, baseline) {
						t.Fatalf("%s (degraded=%v, fired=%d): %d answers, want %d",
							label, res.Stats.Degraded, faultinject.TotalFired()-firedBefore,
							len(got), len(baseline))
					}
				}
			})
		}
	}
}

// TestChaosDisabledDifferential pins the harness-off invariant the chaos
// suite's baseline rests on: with injection disabled, every worker count
// and the stratified schedule agree with the sequential evaluator exactly.
func TestChaosDisabledDifferential(t *testing.T) {
	if faultinject.Enabled() {
		t.Fatal("harness armed at test start")
	}
	baseline, err := tcAnswerSet(20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 2}, {Workers: 4}, {Workers: 8},
		{Streaming: StreamAuto}, {Streaming: StreamAuto, Workers: 3},
	} {
		got, err := tcAnswerSet(20, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !sameSet(got, baseline) {
			t.Errorf("%+v: answers differ from sequential baseline", opts)
		}
	}
}
