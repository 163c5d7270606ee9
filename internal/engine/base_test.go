package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

func mustBase(t *testing.T, facts string) *Base {
	t.Helper()
	b, err := NewBase(mustUnit(t, facts).Facts, 0)
	if err != nil {
		t.Fatalf("NewBase: %v", err)
	}
	return b
}

func atoms(t *testing.T, srcs ...string) []ast.Atom {
	t.Helper()
	out := make([]ast.Atom, len(srcs))
	for i, s := range srcs {
		out[i] = atom(t, s)
	}
	return out
}

func atomSet(atoms []ast.Atom) map[string]bool {
	out := map[string]bool{}
	for _, a := range atoms {
		out[a.String()] = true
	}
	return out
}

// TestBaseVersionsShareUntouchedRelations pins copy-on-write: a batch
// clones the relations it changes and nothing else, a reader holding the
// old version keeps seeing the old state, and batches that change nothing
// or cannot be committed publish nothing.
func TestBaseVersionsShareUntouchedRelations(t *testing.T) {
	b := mustBase(t, "e(1,2). e(2,3). f(a). f(b).")
	v1 := b.Current()
	v2, effA, effR, err := b.Apply(atoms(t, "e(3,4)", "e(1,2)"), atoms(t, "e(2,3)", "e(9,9)", "nope(1)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(effA) != 1 || effA[0].String() != "e(3,4)" || len(effR) != 1 || effR[0].String() != "e(2,3)" {
		t.Fatalf("effective changes = +%v -%v", effA, effR)
	}
	if v2.Epoch() != 1 || v1.Epoch() != 0 || b.Current() != v2 {
		t.Fatalf("epochs: v1=%d v2=%d", v1.Epoch(), v2.Epoch())
	}
	if v2.Relation("f") != v1.Relation("f") {
		t.Error("untouched relation f was not shared between versions")
	}
	if v2.Relation("e") == v1.Relation("e") {
		t.Error("touched relation e was updated in place")
	}
	if got := atomSet(v1.Atoms()); !got["e(2,3)"] || got["e(3,4)"] || v1.Facts() != 4 {
		t.Errorf("the pinned version moved: %v", got)
	}
	if got := atomSet(v2.Atoms()); got["e(2,3)"] || !got["e(3,4)"] || v2.Facts() != 4 {
		t.Errorf("v2 = %v", got)
	}
	for _, f := range v2.FactStrings() {
		if !atomSet(v2.Atoms())[f] {
			t.Errorf("FactStrings renders %q, which Atoms does not", f)
		}
	}

	if v, _, _, err := b.Apply(atoms(t, "f(a)"), atoms(t, "e(7,7)")); err != nil || v != v2 {
		t.Errorf("a noop batch published a version (err %v)", err)
	}
	if _, _, _, err := b.Apply(atoms(t, "e(5,6)", "e(1)"), nil); !errors.Is(err, ErrMutation) {
		t.Errorf("arity conflict: err = %v, want ErrMutation", err)
	}
	if _, _, _, err := b.Apply(atoms(t, "e(X,1)"), nil); !errors.Is(err, ErrMutation) {
		t.Errorf("non-ground assert: err = %v, want ErrMutation", err)
	}
	tx, err := b.Begin(atoms(t, "e(5,6)"), nil)
	if err != nil || !tx.Changed() || tx.Epoch() != 2 {
		t.Fatalf("Begin: changed=%v err=%v", tx != nil && tx.Changed(), err)
	}
	tx.Abort()
	if b.Current() != v2 {
		t.Error("an aborted or rejected batch was published")
	}
}

// TestBaseRelationsStayDense: a retraction leaves no dead row behind — a
// long-lived image leaks nothing per retraction, and the executors that
// read base relations without a liveness check never need one. Checked
// against a model over a random churn.
func TestBaseRelationsStayDense(t *testing.T) {
	b := mustBase(t, "e(0,0).")
	model := map[string]bool{"e(0,0)": true}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		f := fmt.Sprintf("e(%d,%d)", r.Intn(40), r.Intn(3))
		var err error
		if r.Intn(2) == 0 {
			_, _, _, err = b.Apply(atoms(t, f), nil)
			model[f] = true
		} else {
			_, _, _, err = b.Apply(nil, atoms(t, f))
			delete(model, f)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	v := b.Current()
	rel := v.Relation("e")
	if rel.Len() != rel.Live() || rel.Live() != len(model) || v.Facts() != len(model) {
		t.Fatalf("%d arena rows, %d live, %d facts; the model holds %d", rel.Len(), rel.Live(), v.Facts(), len(model))
	}
	got := atomSet(v.Atoms())
	for f := range model {
		if !got[f] {
			t.Errorf("%s is missing from the image", f)
		}
		if !rel.Contains(groundOf(t, v, f)) {
			t.Errorf("%s is in the arena but not in the membership table", f)
		}
	}
}

// groundOf interns nothing: it resolves a fact the image already holds.
func groundOf(t *testing.T, v *Version, fact string) []Val {
	t.Helper()
	a := atom(t, fact)
	tuple := make([]Val, len(a.Args))
	for i, arg := range a.Args {
		val, ok := v.Store().Find(arg)
		if !ok {
			t.Fatalf("%s: term %s is not interned", fact, arg)
		}
		tuple[i] = val
	}
	return tuple
}

// TestFrozenRelationRejectsWrites: every row-level write to a frozen
// relation panics, and a recover barrier reports it as ErrInternal.
func TestFrozenRelationRejectsWrites(t *testing.T) {
	b := mustBase(t, "e(1,2).")
	rel := b.Current().Relation("e")
	tuple := []Val{rel.Tuple(0)[1], rel.Tuple(0)[0]}
	writes := map[string]func(){
		"Insert":       func() { rel.Insert(tuple) },
		"Delete":       func() { rel.Delete(rel.Tuple(0)) },
		"EnableCounts": func() { rel.EnableCounts() },
		"stampDying":   func() { rel.stampDying(0) },
	}
	for name, write := range writes {
		err := func() (err error) {
			defer recoverTo("eval", &err)
			write()
			return nil
		}()
		var pe *PanicError
		if !errors.Is(err, ErrInternal) || !errors.As(err, &pe) {
			t.Errorf("%s on a frozen relation: err = %v, want a *PanicError wrapping ErrInternal", name, err)
		}
	}
	if rel.Len() != 1 || rel.Live() != 1 || rel.Counted() || rel.Round(0) != 0 {
		t.Error("a rejected write changed the relation")
	}
	// Writing through a DB that aliases the relation clones it instead.
	db := b.Current().EvalDB()
	if ok, err := db.Insert("e", tuple...); err != nil || !ok {
		t.Fatalf("DB.Insert over an aliased relation: ok=%v err=%v", ok, err)
	}
	if rel.Len() != 1 || db.Count("e") != 2 || db.Lookup("e") == rel {
		t.Error("DB.Insert wrote through to the image")
	}
}

// TestFrozenIndexBuiltOnce: many goroutines asking a frozen relation for
// the same indexes at once get one index per column set, and none of them
// races (run under -race).
func TestFrozenIndexBuiltOnce(t *testing.T) {
	var facts []ast.Atom
	for i := 0; i < 2000; i++ {
		facts = append(facts, ast.Atom{Pred: "e", Args: []ast.Term{
			ast.C(fmt.Sprint(i % 50)), ast.C(fmt.Sprint(i)), ast.C(fmt.Sprint(i % 7))}})
	}
	b, err := NewBase(facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel := b.Current().Relation("e")
	key0 := []Val{rel.Tuple(0)[0]}
	colSets := [][]int{{0}, {2}, {0, 2}, {1}}
	const goroutines = 16
	got := make([][]*index, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range colSets {
				cols := colSets[(i+g)%len(colSets)]
				got[g] = append(got[g], rel.ensureIndex(cols))
				if n := len(rel.Probe([]int{0}, key0)); n != 40 {
					t.Errorf("probe on column 0 found %d rows, want 40", n)
				}
				if !rel.HasIndex(cols) {
					t.Errorf("index %v not published after ensureIndex returned", cols)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := len(rel.indexSet()); n != len(colSets) {
		t.Fatalf("%d indexes published for %d column sets", n, len(colSets))
	}
	for g := range got {
		for i, ix := range got[g] {
			if want := rel.indexSet()[colMask(colSets[(i+g)%len(colSets)])]; ix != want {
				t.Fatalf("goroutine %d was handed an index that was not the published one", g)
			}
		}
	}
}

// TestChildStoreScoping is the child-store property: whatever order a term
// reaches the child and the parent in, it has one Val inside the child for
// the child's life, it renders back to itself, and nothing the child
// interned reaches the parent.
func TestChildStoreScoping(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		parent := NewStore()
		for i := 0; i < 10; i++ {
			parent.MustFromAST(randGroundTerm(r, 3))
		}
		child := parent.Child()
		seen := map[string]Val{}
		for i := 0; i < 200; i++ {
			term := randGroundTerm(r, 3)
			if r.Intn(3) == 0 {
				// The parent learns the term too — before or after the child.
				parent.MustFromAST(term)
			}
			v := child.MustFromAST(term)
			if prev, ok := seen[term.String()]; ok && prev != v {
				t.Fatalf("seed %d: %s had Val %d in the child, now %d", seed, term, prev, v)
			}
			seen[term.String()] = v
			if got := child.String(v); got != term.String() {
				t.Fatalf("seed %d: Val %d renders %q, interned %q", seed, v, got, term)
			}
			if found, ok := child.Find(term); !ok || found != v {
				t.Fatalf("seed %d: Find(%s) = %d,%v, want %d", seed, term, found, ok, v)
			}
		}
	}

	parent := NewStore()
	parent.Const("a")
	size := parent.Size()
	for i := 0; i < 1000; i++ {
		c := parent.Child()
		c.Compound("s", c.Const(fmt.Sprintf("q%d", i)), c.Const("a"))
	}
	if parent.Size() != size {
		t.Fatalf("dropped children grew the parent from %d to %d terms", size, parent.Size())
	}
}

// TestChildStoreThroughMaterialization: a term the materialization's child
// store interned first and the base image interned later must stay one Val
// inside the materialization when the batch that introduced it is replayed.
func TestChildStoreThroughMaterialization(t *testing.T) {
	u := mustUnit(t, incrementalPrograms["tc"]+" e(a,b). e(b,c).")
	b, err := NewBase(u.Facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MaterializeVersion(context.Background(), u.Program(), b.Current(), MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inChild := m.store.Const("zz") // e.g. a query constant nobody has asserted yet
	if inChild < childBase {
		t.Fatalf("zz interned at %d, below the child range", inChild)
	}
	batch := atoms(t, "e(c,zz)", "e(zz,d)")
	v, _, _, err := b.Apply(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	inParent, ok := b.Current().Store().Find(ast.C("zz"))
	if !ok || inParent == inChild {
		t.Fatalf("the image interned zz at %d (found %v); the child holds %d", inParent, ok, inChild)
	}
	if _, err := m.Apply(context.Background(), batch, nil); err != nil {
		t.Fatal(err)
	}
	if again := m.store.Const("zz"); again != inChild {
		t.Fatalf("zz moved from %d to %d inside the child", inChild, again)
	}
	for _, pred := range m.DB().Preds() {
		rel := m.DB().Lookup(pred)
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			for _, val := range rel.Tuple(pos) {
				if val == inParent {
					t.Fatalf("%s%s holds the image's Val for zz", pred, m.store.TupleString(rel.Tuple(pos)))
				}
			}
		}
	}
	diffDump(t, "after replaying the batch", scratchFixpoint(t, u.Program(), v.Atoms(), 1), dumpLive(m.DB()))
}

// TestMaterializeVersionSlicesByRelevance: only the relations the program
// names (and the ones the caller keeps) are carried; the pure-EDB ones are
// the image's own relations until a batch changes one, and the heads are
// private and counted. A predicate that is both asserted and derived keeps
// its EDB support through a retraction of its other support and through a
// rebuild.
func TestMaterializeVersionSlicesByRelevance(t *testing.T) {
	u := mustUnit(t, incrementalPrograms["derivable-edb"]+`
		e(1,2). seed(1,2). seed(3,4). m(2). m(4). other(1). other(2). kept(9).`)
	b, err := NewBase(u.Facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := MaterializeVersion(ctx, u.Program(), b.Current(), MaterializeOptions{}, "kept")
	if err != nil {
		t.Fatal(err)
	}
	if m.Reads("other") || !m.Reads("kept") || !m.Reads("seed") || !m.Reads("p") {
		t.Error("Reads disagrees with the program's predicates plus the kept ones")
	}
	if m.DB().Lookup("other") != nil || m.DB().Count("kept") != 1 {
		t.Errorf("carried relations: %v", m.DB().Preds())
	}
	if m.BaseCount() != 6 {
		t.Errorf("BaseCount = %d, want the 6 carried base facts", m.BaseCount())
	}
	v := b.Current()
	// owned checks that the heads e and p and the given pure-EDB relations
	// are private and counted, and every other relation is the image's.
	owned := func(label string, preds ...string) {
		t.Helper()
		own := map[string]bool{"e": true, "p": true}
		for _, pred := range preds {
			own[pred] = true
		}
		for pred, rel := range m.DB().relations {
			image := rel == v.Relation(pred)
			if own[pred] && (image || rel.frozen || !rel.Counted()) {
				t.Errorf("%s: %s is not private and counted", label, pred)
			}
			if !own[pred] && (!image || !rel.frozen) {
				t.Errorf("%s: pure-EDB %s is not the image's relation", label, pred)
			}
		}
	}
	want := func(label string) {
		t.Helper()
		facts := m.BaseFacts()
		diffDump(t, label, scratchFixpoint(t, u.Program(), facts, 1), dumpLive(m.DB()))
	}
	owned("initial build")
	want("initial build")
	// e(1,2) is asserted and derived from seed(1,2): losing one support
	// keeps it, whichever goes first.
	if _, err := m.Apply(ctx, nil, atoms(t, "seed(1,2)")); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("e") != 2 || m.DB().Count("p") != 2 {
		t.Errorf("after retracting seed(1,2): e=%d p=%d, want 2 and 2", m.DB().Count("e"), m.DB().Count("p"))
	}
	owned("after retracting seed(1,2)", "seed")
	want("after retracting the derived support")
	if err := m.Rebuild(ctx); err != nil {
		t.Fatal(err)
	}
	owned("after a rebuild", "seed")
	want("after a rebuild")
	if _, err := m.Apply(ctx, nil, atoms(t, "e(1,2)")); err != nil {
		t.Fatal(err)
	}
	if m.DB().Count("e") != 1 {
		t.Errorf("after retracting e(1,2) too: e=%d, want 1", m.DB().Count("e"))
	}
	want("after retracting the asserted support")
	if got := atomSet(b.Current().Atoms()); !got["e(1,2)"] || !got["seed(1,2)"] {
		t.Error("a materialization's batches reached the image")
	}
}

// imageState records what a materialization must never change in the
// version it reads: each relation's pointer and rows.
type imageState map[string]imageRel

type imageRel struct {
	rel   *Relation
	rows  int
	arena []Val
}

func recordImage(v *Version) imageState {
	out := imageState{}
	for pred, rel := range v.rels {
		out[pred] = imageRel{rel, rel.Len(), slices.Clone(rel.arena)}
	}
	return out
}

// check fails unless v still holds exactly the recorded relations, each
// frozen, with its rows, every row stamped 0 and no counts.
func (want imageState) check(t *testing.T, label string, v *Version) {
	t.Helper()
	if len(v.rels) != len(want) {
		t.Fatalf("%s: the version has %d relations, want %d", label, len(v.rels), len(want))
	}
	for pred, w := range want {
		rel := v.rels[pred]
		switch {
		case rel != w.rel:
			t.Fatalf("%s: %s is no longer the recorded relation", label, pred)
		case !rel.frozen || rel.counted || rel.counts != nil || rel.dead != 0:
			t.Fatalf("%s: %s was written (frozen %v, counted %v, dead %d)", label, pred, rel.frozen, rel.counted, rel.dead)
		case rel.Len() != w.rows || !slices.Equal(rel.arena, w.arena):
			t.Fatalf("%s: the rows of %s changed", label, pred)
		}
		for pos, round := range rel.rounds {
			if round != 0 {
				t.Fatalf("%s: %s row %d stamped %d", label, pred, pos, round)
			}
		}
	}
}

// TestMaterializationLeavesImageUntouched: a materialization reads the pure
// EDB by reference, so nothing it does — a build, counting deletes, DRed
// rebuilds, a batch that fails and rolls back, an explicit Rebuild — may
// write the version it was built over. After every step the version holds
// the same relations with the same rows, unstamped and uncounted, and a
// scratch Eval over v.EvalDB() agrees with the reference. Two entries are
// built over the version at once (run it under -race); each one's first
// batch writes relations it still shares with the image.
func TestMaterializationLeavesImageUntouched(t *testing.T) {
	ctx := context.Background()
	var counting, dred int
	for name, src := range incrementalPrograms {
		t.Run(name, func(t *testing.T) {
			u := mustUnit(t, src)
			rng := rand.New(rand.NewSource(int64(len(name))))
			b, err := NewBase(randomEDB(t, rng, incrementalEDB[name], 24), 0)
			if err != nil {
				t.Fatal(err)
			}
			v := b.Current()
			image := recordImage(v)
			reference := scratchFixpoint(t, u.Program(), v.Atoms(), 1)

			var ms [2]*Materialization
			var errs [2]error
			var wg sync.WaitGroup
			for i := range ms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ms[i], errs[i] = MaterializeVersion(ctx, u.Program(), v, MaterializeOptions{})
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("concurrent build %d: %v", i, err)
				}
			}
			image.check(t, "after two concurrent builds", v)
			m := ms[0]

			live := atomSet(v.Atoms())
			for batch := 0; batch < 16; batch++ {
				assert := randomEDB(t, rng, incrementalEDB[name], 1+rng.Intn(3))
				var retract []ast.Atom
				for _, a := range randomEDB(t, rng, incrementalEDB[name], 8) {
					// The first batch only asserts, so its insertions meet
					// relations that are still the image's.
					if batch > 0 && live[a.String()] && len(retract) < 3 {
						retract = append(retract, a)
					}
				}
				label := fmt.Sprintf("batch %d", batch)
				if batch == 8 {
					// A batch that dies in its first wave rolls back; the
					// next batch rebuilds from the restored base.
					fresh := randomEDB(t, rng, incrementalEDB[name][:1], 1)[0]
					fresh.Args[0] = ast.C("100")
					disable := faultinject.Enable(faultinject.Config{Seed: 1, MaxPeriod: 1, Points: []faultinject.Point{faultinject.DeltaWave}})
					_, err := m.Apply(ctx, append(assert, fresh), retract)
					disable()
					if err == nil || !m.Dirty() {
						t.Fatalf("%s under an armed DeltaWave: err = %v, dirty = %v", label, err, m.Dirty())
					}
					image.check(t, label+" (rolled back)", v)
					continue
				}
				st, err := m.Apply(ctx, assert, retract)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st.Rebuilt {
					dred++
				} else if st.DeletedFacts > 0 {
					counting++
				}
				for _, a := range retract {
					delete(live, a.String())
				}
				for _, a := range assert {
					live[a.String()] = true
				}
				image.check(t, label, v)
				diffDump(t, label, scratchFixpoint(t, u.Program(), m.BaseFacts(), 1), dumpLive(m.DB()))
			}
			if err := m.Rebuild(ctx); err != nil {
				t.Fatal(err)
			}
			image.check(t, "after Rebuild", v)
			diffDump(t, "after Rebuild", scratchFixpoint(t, u.Program(), m.BaseFacts(), 1), dumpLive(m.DB()))
			if len(live) != m.BaseCount() {
				t.Errorf("the materialization holds %d base facts, want %d", m.BaseCount(), len(live))
			}

			diffDump(t, "the other entry", reference, dumpLive(ms[1].DB()))
			// The other entry's first batch only retracts, so its deletions
			// meet relations that are still the image's.
			retract := v.Atoms()[:3]
			if _, err := ms[1].Apply(ctx, nil, retract); err != nil {
				t.Fatal(err)
			}
			image.check(t, "after the other entry's retraction", v)
			diffDump(t, "the other entry after its retraction", scratchFixpoint(t, u.Program(), ms[1].BaseFacts(), 1), dumpLive(ms[1].DB()))
			db := v.EvalDB()
			if _, err := Eval(u.Program(), db, Options{}); err != nil {
				t.Fatal(err)
			}
			diffDump(t, "scratch Eval over the image", reference, dumpLive(db))
			image.check(t, "after the scratch Eval", v)
		})
	}
	if counting == 0 || dred == 0 {
		t.Errorf("%d counting deletes and %d DRed rebuilds ran; want both", counting, dred)
	}
}

// TestMaterializeVersionHonorsContext: a build is bounded by its context.
func TestMaterializeVersionHonorsContext(t *testing.T) {
	prog, db, _ := chainTC(t, 400)
	b, err := NewBase(dumpAtoms(t, db), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MaterializeVersion(ctx, prog, b.Current(), MaterializeOptions{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("build under a canceled context: err = %v, want ErrCanceled", err)
	}
}

// dumpAtoms renders db's live facts as atoms.
func dumpAtoms(t *testing.T, db *DB) []ast.Atom {
	t.Helper()
	var out []ast.Atom
	for f := range dumpLive(db) {
		a, err := parser.ParseAtom(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestApplyRestampsOnlyThePreviousDelta: an assert into an N-row
// materialization visits O(batch + derived) round stamps, not N — the
// first batch after a build too, since the build stamps only what it
// derives.
func TestApplyRestampsOnlyThePreviousDelta(t *testing.T) {
	const n = 20000
	var facts []ast.Atom
	for i := 0; i < n; i++ {
		facts = append(facts, ast.Atom{Pred: "e", Args: []ast.Term{ast.C(fmt.Sprint(i)), ast.C(fmt.Sprint(i + 1))}})
	}
	facts = append(facts, atoms(t, "m(1)", "m(2)")...)
	u := mustUnit(t, incrementalPrograms["derivable-edb"])
	b, err := NewBase(facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := MaterializeVersion(ctx, u.Program(), b.Current(), MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range [][]ast.Atom{atoms(t, "seed(x1,1)"), atoms(t, "seed(x2,2)"), atoms(t, "e(x3,1)", "e(x4,2)"), atoms(t, "m(7)")} {
		st, err := m.Apply(ctx, batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The build or the previous batch added at most 2 base rows and 4
		// derived ones.
		if st.Restamped > 8 {
			t.Errorf("batch %d restamped %d rows of a %d-row materialization", i, st.Restamped, st.Total)
		}
	}
	diffDump(t, "after the batches", scratchFixpoint(t, u.Program(), m.BaseFacts(), 1), dumpLive(m.DB()))
}
