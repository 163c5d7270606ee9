package engine

import (
	"context"
	"slices"
	"sync"
	"testing"

	"factorlog/internal/parser"
)

// checkRels fails unless m's id table holds, for every predicate of its
// program, the relation m's database holds under the predicate's name.
func checkRels(t *testing.T, label string, m *Materialization) {
	t.Helper()
	for id, p := range m.prog.preds {
		if m.rels[id] != m.db.Lookup(p.name) {
			t.Fatalf("%s: the id table's %s is not the database's", label, p.name)
		}
	}
}

// TestAliasedRelationIDsFollowOwn: a build resolves its relations once, by
// predicate id, and every later write that replaces a relation in the
// materialized database replaces it in the id table too. The first assert
// into e writes through own, cloning the relation the build aliased from
// the image; the retraction that follows reaches the recursive stratum, so
// it clears and recomputes t (rebuildPreds); a separate batch asserts a
// predicate no rule names. After each, the image is unchanged, the id table
// agrees with the database, Reads is right, and the materialized facts
// equal a scratch evaluation.
func TestAliasedRelationIDsFollowOwn(t *testing.T) {
	u := mustUnit(t, incrementalPrograms["tc"]+" e(1,2). e(2,3). e(3,4).")
	b, err := NewBase(u.Facts, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := b.Current()
	image := recordImage(v)
	ctx := context.Background()
	m, err := MaterializeVersion(ctx, u.Program(), v, MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := m.prog.id("e")
	step := func(label string) {
		t.Helper()
		image.check(t, label, v)
		checkRels(t, label, m)
		diffDump(t, label, scratchFixpoint(t, u.Program(), m.BaseFacts(), 1), dumpLive(m.DB()))
		if !m.Reads("e") || !m.Reads("t") || m.Reads("other") {
			t.Errorf("%s: Reads disagrees with the program's predicates", label)
		}
	}
	step("build")
	if m.rels[e] != v.Relation("e") {
		t.Fatal("the build copied e instead of aliasing the image's relation")
	}

	if _, err := m.Apply(ctx, atoms(t, "e(4,5)"), nil); err != nil {
		t.Fatal(err)
	}
	if m.rels[e] == v.Relation("e") || m.rels[e].frozen {
		t.Fatal("the first assert into e did not make it private")
	}
	step("first write into e")

	st, err := m.Apply(ctx, nil, atoms(t, "e(2,3)"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rebuilt {
		t.Fatal("retracting e(2,3) did not rebuild the recursive stratum")
	}
	step("retraction into the recursive stratum")

	st, err = m.Apply(ctx, atoms(t, "other(7)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Asserted != 1 || st.Waves != 0 {
		t.Errorf("asserting other(7): asserted %d in %d waves, want 1 in 0", st.Asserted, st.Waves)
	}
	if m.prog.id("other") >= 0 {
		t.Fatal("the batch named a predicate in the compiled program")
	}
	step("a predicate no rule names")
}

// TestCompiledProgramSharedByBuilds: builds that bind different constants
// into one compiled program run side by side (run it under -race), each
// answers as a scratch evaluation of the program with its constant
// substituted, and the program keeps no Val of any build's store.
func TestCompiledProgramSharedByBuilds(t *testing.T) {
	const tmpl = `
		m(X) :- seed(X).
		m(Y) :- m(X), e(X,Y).
		answer(Y) :- m(Y).`
	cp, err := Compile(parser.MustParseProgram(tmpl + " seed('$0')."))
	if err != nil {
		t.Fatal(err)
	}
	consts := slices.Clone(cp.consts)
	b, err := NewBase(chainFacts(t, 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := b.Current()
	want := map[string]map[string]bool{}
	for _, k := range []string{"3", "17", "29"} {
		want[k] = scratchFixpoint(t, parser.MustParseProgram(tmpl+" seed("+k+")."), v.Atoms(), 1)
	}
	got := make(map[string]map[string]bool, len(want))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := cp.Materialize(context.Background(), v, map[string]string{"$0": k}, MaterializeOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got[k] = dumpLive(m.DB())
			mu.Unlock()
		}()
	}
	wg.Wait()
	for k := range want {
		diffDump(t, "seed "+k, want[k], got[k])
	}
	if !slices.Equal(cp.consts, consts) {
		t.Errorf("the builds changed the constant table: %v, was %v", cp.consts, consts)
	}
}
