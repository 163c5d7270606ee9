package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// incrementalPrograms are the rule families the differential tests churn:
// linear recursion (TC), a non-recursive join pyramid, a derivable EDB
// predicate (retractable facts that rules can also produce), and mutual
// recursion across two predicates.
var incrementalPrograms = map[string]string{
	"tc": `
		t(X,Y) :- e(X,Y).
		t(X,Y) :- e(X,W), t(W,Y).
		?- t(X,Y).`,
	"layered": `
		j1(X,Y) :- e(X,Y).
		j2(X,Z) :- j1(X,Y), e(Y,Z).
		j3(X,Z) :- j2(X,Y), j1(Y,Z).
		?- j3(X,Y).`,
	"derivable-edb": `
		e(X,Y) :- seed(X,Y).
		p(X,Y) :- e(X,Y), m(Y).
		?- p(X,Y).`,
	"mutual": `
		even(X) :- zero(X).
		odd(Y) :- even(X), succ(X,Y).
		even(Y) :- odd(X), succ(X,Y).
		?- even(X).`,
}

// incrementalEDB names the pure-EDB predicates of each incrementalPrograms
// entry, the ones randomEDB draws facts for.
var incrementalEDB = map[string][]string{
	"tc":            {"e"},
	"layered":       {"e"},
	"derivable-edb": {"seed", "m"},
	"mutual":        {"zero", "succ"},
}

// randomEDB draws n random facts of preds over a small domain.
func randomEDB(t *testing.T, rng *rand.Rand, preds []string, n int) []ast.Atom {
	t.Helper()
	var out []ast.Atom
	for i := 0; i < n; i++ {
		pred := preds[rng.Intn(len(preds))]
		switch pred {
		case "m":
			out = append(out, atom(t, fmt.Sprintf("m(%d)", rng.Intn(8))))
		case "zero":
			out = append(out, atom(t, fmt.Sprintf("zero(%d)", rng.Intn(3))))
		case "succ":
			a := rng.Intn(8)
			out = append(out, atom(t, fmt.Sprintf("succ(%d,%d)", a, a+1)))
		default:
			out = append(out, atom(t, fmt.Sprintf("%s(%d,%d)", pred, rng.Intn(8), rng.Intn(8))))
		}
	}
	return out
}

func mustUnit(t *testing.T, src string) *parser.Unit {
	t.Helper()
	u, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return u
}

// dumpLive renders every live fact of every relation as pred(tuple).
func dumpLive(db *DB) map[string]bool {
	out := map[string]bool{}
	for _, pred := range db.Preds() {
		rel := db.Lookup(pred)
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			if rel.Round(pos) < 0 {
				continue
			}
			out[pred+db.Store.TupleString(rel.Tuple(pos))] = true
		}
	}
	return out
}

// scratchFixpoint evaluates prog from scratch over facts and returns the
// live-fact dump, the reference the incremental state must match.
func scratchFixpoint(t *testing.T, prog *ast.Program, facts []ast.Atom, workers int) map[string]bool {
	t.Helper()
	db := NewDB()
	if err := LoadFacts(db, facts); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := Eval(prog, db, Options{Workers: workers}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	return dumpLive(db)
}

func diffDump(t *testing.T, label string, want, got map[string]bool) {
	t.Helper()
	for f := range want {
		if !got[f] {
			t.Errorf("%s: missing %s", label, f)
		}
	}
	for f := range got {
		if !want[f] {
			t.Errorf("%s: extra %s", label, f)
		}
	}
}

func atom(t *testing.T, src string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(src)
	if err != nil {
		t.Fatalf("atom %q: %v", src, err)
	}
	return a
}

// TestMaterializeInitialBuild pins the initial fixpoint (and its counts)
// against from-scratch evaluation for every program family.
func TestMaterializeInitialBuild(t *testing.T) {
	for name, src := range incrementalPrograms {
		t.Run(name, func(t *testing.T) {
			u := mustUnit(t, src)
			m, err := Materialize(u.Program(), u.Facts, MaterializeOptions{})
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			want := scratchFixpoint(t, u.Program(), u.Facts, 1)
			diffDump(t, name, want, dumpLive(m.DB()))
		})
	}
}

// TestIncrementalDifferential interleaves randomized asserts and retracts
// and checks after every batch that the materialized state equals a
// from-scratch fixpoint over the surviving base facts — across program
// families and from-scratch worker counts 1 and 8 (the reference side;
// the maintenance waves themselves are sequential by design).
func TestIncrementalDifferential(t *testing.T) {
	for name, src := range incrementalPrograms {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/w=%d", name, workers), func(t *testing.T) {
				u := mustUnit(t, src)
				rng := rand.New(rand.NewSource(int64(len(name))*31 + int64(workers)))
				m, err := Materialize(u.Program(), u.Facts, MaterializeOptions{})
				if err != nil {
					t.Fatalf("materialize: %v", err)
				}
				live := map[string]ast.Atom{}
				for _, f := range u.Facts {
					live[f.String()] = f
				}
				for batch := 0; batch < 25; batch++ {
					var assert, retract []ast.Atom
					assert = append(assert, randomEDB(t, rng, incrementalEDB[name], 1+rng.Intn(4))...)
					// Retract a mix of live facts and never-asserted ones.
					for k := range live {
						if rng.Intn(4) == 0 {
							retract = append(retract, live[k])
						}
						if len(retract) >= 3 {
							break
						}
					}
					if rng.Intn(3) == 0 {
						retract = append(retract, randomEDB(t, rng, incrementalEDB[name], 1)...)
					}
					epochBefore := m.Epoch()
					st, err := m.Apply(context.Background(), assert, retract)
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					if m.Epoch() != epochBefore+1 {
						t.Fatalf("batch %d: epoch %d -> %d, want +1", batch, epochBefore, m.Epoch())
					}
					// Track the surviving base set the same way.
					for _, a := range retract {
						delete(live, a.String())
					}
					for _, a := range assert {
						live[a.String()] = a
					}
					var facts []ast.Atom
					for _, a := range live {
						facts = append(facts, a)
					}
					want := scratchFixpoint(t, u.Program(), facts, workers)
					diffDump(t, fmt.Sprintf("batch %d (stats %+v)", batch, st), want, dumpLive(m.DB()))
					if t.Failed() {
						t.FailNow()
					}
				}
			})
		}
	}
}

// TestRetractionEdgeCases covers the satellite checklist: retracting a
// never-asserted fact, double-retract, and retracting an EDB fact that is
// also derivable by a rule.
func TestRetractionEdgeCases(t *testing.T) {
	u := mustUnit(t, `
		e(X,Y) :- seed(X,Y).
		t(X,Y) :- e(X,Y).
		seed(1,2).
		e(7,8).
		?- t(X,Y).`)
	m, err := Materialize(u.Program(), u.Facts, MaterializeOptions{})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	ctx := context.Background()

	t.Run("never-asserted", func(t *testing.T) {
		st, err := m.Apply(ctx, nil, []ast.Atom{atom(t, "e(99,99)")})
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if st.NoopRetracts != 1 || st.Retracted != 0 {
			t.Fatalf("stats %+v, want 1 noop retract", st)
		}
	})

	t.Run("derivable-edb-fact", func(t *testing.T) {
		// Assert e(1,2), which rule e :- seed already derives: presence
		// must survive retracting either support alone.
		if _, err := m.Apply(ctx, []ast.Atom{atom(t, "e(1,2)")}, nil); err != nil {
			t.Fatalf("assert: %v", err)
		}
		if _, err := m.Apply(ctx, nil, []ast.Atom{atom(t, "e(1,2)")}); err != nil {
			t.Fatalf("retract: %v", err)
		}
		if !dumpLive(m.DB())["t(1,2)"] {
			t.Fatalf("t(1,2) lost: still derivable via seed(1,2)")
		}
		// Now retract the seed too; the fact must die.
		if _, err := m.Apply(ctx, nil, []ast.Atom{atom(t, "seed(1,2)")}); err != nil {
			t.Fatalf("retract seed: %v", err)
		}
		if got := dumpLive(m.DB()); got["t(1,2)"] || got["e(1,2)"] {
			t.Fatalf("e/t(1,2) survive with no support: %v", got)
		}
	})

	t.Run("double-retract", func(t *testing.T) {
		if st, err := m.Apply(ctx, nil, []ast.Atom{atom(t, "e(7,8)")}); err != nil || st.Retracted != 1 {
			t.Fatalf("first retract: st=%+v err=%v", st, err)
		}
		st, err := m.Apply(ctx, nil, []ast.Atom{atom(t, "e(7,8)")})
		if err != nil {
			t.Fatalf("second retract: %v", err)
		}
		if st.NoopRetracts != 1 || st.Retracted != 0 {
			t.Fatalf("second retract stats %+v, want noop", st)
		}
	})
}

// TestMutationValidation pins the ErrMutation surface: non-ground atoms,
// derived predicates, and arity conflicts are rejected without a state or
// epoch change.
func TestMutationValidation(t *testing.T) {
	u := mustUnit(t, "t(X,Y) :- e(X,Y). e(1,2). ?- t(X,Y).")
	m, err := Materialize(u.Program(), u.Facts, MaterializeOptions{})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	before := dumpLive(m.DB())
	epoch := m.Epoch()
	cases := []ast.Atom{
		atom(t, "e(X,1)"),   // non-ground
		atom(t, "e(1,2,3)"), // arity conflict
	}
	for _, bad := range cases {
		if _, err := m.Apply(context.Background(), []ast.Atom{bad}, nil); !errors.Is(err, ErrMutation) {
			t.Fatalf("assert %s: err=%v, want ErrMutation", bad, err)
		}
	}
	if m.Epoch() != epoch || m.Dirty() {
		t.Fatalf("rejected batches changed epoch/dirty: epoch %d->%d dirty=%v", epoch, m.Epoch(), m.Dirty())
	}
	diffDump(t, "after rejects", before, dumpLive(m.DB()))
}

// TestApplyRollbackOnPanic arms the mutation-path injection points so a
// batch dies mid-maintenance, then checks the epoch did not advance, the
// observable state rolled back to the previous batch, and the next clean
// Apply recovers (rebuild from the restored base) — PR 5's recover
// barriers extended to the mutation path.
func TestApplyRollbackOnPanic(t *testing.T) {
	u := mustUnit(t, `
		t(X,Y) :- e(X,Y).
		t(X,Y) :- e(X,W), t(W,Y).
		e(1,2). e(2,3).
		?- t(X,Y).`)
	m, err := Materialize(u.Program(), u.Facts, MaterializeOptions{})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	ctx := context.Background()
	if _, err := m.Apply(ctx, []ast.Atom{atom(t, "e(3,4)")}, nil); err != nil {
		t.Fatalf("warm apply: %v", err)
	}
	stable := dumpLive(m.DB())
	epoch := m.Epoch()

	disable := faultinject.Enable(faultinject.Config{
		Seed:      7,
		MaxPeriod: 1,
		Points:    []faultinject.Point{faultinject.DeltaWave},
	})
	_, err = m.Apply(ctx, []ast.Atom{atom(t, "e(4,5)")}, []ast.Atom{atom(t, "e(1,2)")})
	disable()
	if err == nil {
		t.Fatalf("apply under armed DeltaWave: want error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want *PanicError wrapping ErrInternal", err)
	}
	if m.Epoch() != epoch {
		t.Fatalf("failed batch advanced epoch %d -> %d", epoch, m.Epoch())
	}
	if !m.Dirty() {
		t.Fatalf("failed batch did not poison the materialization")
	}

	// The next batch rebuilds from the rolled-back base and then applies
	// cleanly: observable state is the stable set plus the new fact's
	// consequences, never the half-applied batch.
	if _, err := m.Apply(ctx, []ast.Atom{atom(t, "e(9,10)")}, nil); err != nil {
		t.Fatalf("recovery apply: %v", err)
	}
	if m.Dirty() {
		t.Fatalf("recovery apply left the materialization dirty")
	}
	want := map[string]bool{}
	for f := range stable {
		want[f] = true
	}
	want["e(9,10)"] = true
	want["t(9,10)"] = true
	diffDump(t, "after recovery", want, dumpLive(m.DB()))
}

// TestApplyContextCanceled checks a canceled batch rolls back like a
// panic: no epoch advance, dirty, recoverable.
func TestApplyContextCanceled(t *testing.T) {
	u := mustUnit(t, `
		t(X,Y) :- e(X,Y).
		t(X,Y) :- e(X,W), t(W,Y).
		?- t(X,Y).`)
	var facts []ast.Atom
	for i := 0; i < 64; i++ {
		facts = append(facts, atom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	m, err := Materialize(u.Program(), facts, MaterializeOptions{})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	epoch := m.Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.Apply(ctx, []ast.Atom{atom(t, "e(64,65)")}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if m.Epoch() != epoch {
		t.Fatalf("canceled batch advanced epoch")
	}
	if _, err := m.Apply(context.Background(), []ast.Atom{atom(t, "e(64,65)")}, nil); err != nil {
		t.Fatalf("recovery apply: %v", err)
	}
	want := scratchFixpoint(t, u.Program(), append(facts, atom(t, "e(64,65)")), 1)
	diffDump(t, "after cancel+recover", want, dumpLive(m.DB()))
}

// TestMaterializeBudget pins ErrBudgetExceeded on a batch whose cascade
// exceeds MaxFacts.
func TestMaterializeBudget(t *testing.T) {
	u := mustUnit(t, `
		t(X,Y) :- e(X,Y).
		t(X,Y) :- e(X,W), t(W,Y).
		?- t(X,Y).`)
	var facts []ast.Atom
	for i := 0; i < 40; i++ {
		facts = append(facts, atom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	if _, err := Materialize(u.Program(), facts, MaterializeOptions{MaxFacts: 10}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("build budget: err = %v, want ErrBudgetExceeded", err)
	}
	m, err := Materialize(u.Program(), facts[:4], MaterializeOptions{MaxFacts: 30})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	// Connecting a long chain through one edge blows the per-batch budget.
	for i := 4; i < 40; i++ {
		if _, err := m.Apply(context.Background(), []ast.Atom{atom(t, fmt.Sprintf("e(%d,%d)", i, i+1))}, nil); err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				return
			}
			t.Fatalf("apply: %v", err)
		}
	}
	t.Fatalf("no batch exceeded MaxFacts=30")
}

// TestEpochStamps checks a build starts at StartEpoch and each batch
// advances the epoch by one.
func TestEpochStamps(t *testing.T) {
	u := mustUnit(t, "t(X,Y) :- e(X,Y). e(1,2). ?- t(X,Y).")
	m, err := Materialize(u.Program(), u.Facts, MaterializeOptions{StartEpoch: 5})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if _, err := m.Apply(context.Background(), []ast.Atom{atom(t, "e(3,4)")}, nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if m.Epoch() != 6 {
		t.Errorf("epoch = %d, want 6", m.Epoch())
	}
}

// TestMaterializeMaxBytesChargesOwnedRelations: MaxBytes bounds what the
// materialization owns, not the image relations it reads by reference. A
// budget below the image's footprint but above the derived facts' builds;
// a budget below the derived facts' fails.
func TestMaterializeMaxBytesChargesOwnedRelations(t *testing.T) {
	const n = 4000
	var facts []ast.Atom
	for i := 0; i < n; i++ {
		facts = append(facts, atom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	facts = append(facts, atom(t, "m(7)"), atom(t, "m(9)"))
	u := mustUnit(t, "p(X) :- e(X,Y), m(Y). ?- p(X).")
	b, err := NewBase(facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := b.Current()
	var image int64
	for _, pred := range v.Preds() {
		arena, index, _, _, _ := v.Relation(pred).StorageFootprint()
		image += arena + index
	}
	ctx := context.Background()
	budget := image / 4
	m, err := MaterializeVersion(ctx, u.Program(), v, MaterializeOptions{MaxBytes: budget})
	if err != nil {
		t.Fatalf("build under MaxBytes %d (the image holds %d): %v", budget, image, err)
	}
	st := m.DB().StorageStats()
	if owned := st.ArenaBytes + st.IndexBytes; owned > budget || m.DB().Count("p") != 2 {
		t.Fatalf("built with %d owned bytes and %d p facts, want at most %d and 2", owned, m.DB().Count("p"), budget)
	}
	if _, err := MaterializeVersion(ctx, u.Program(), v, MaterializeOptions{MaxBytes: 8}); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("build under MaxBytes 8: err = %v, want ErrMemoryBudget", err)
	}
}
