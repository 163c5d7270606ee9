package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// This file tests the shared base image from the serving side: evaluation
// over aliased relations, the registry's split locks, relevance slicing and
// the scoping of everything a request interns.

// epochModel remembers, per epoch, the base facts a writer committed at it.
// A writer records the epoch's state before readers can see the version.
type epochModel struct {
	mu    sync.Mutex
	facts map[string]ast.Atom
	at    map[int64][]ast.Atom
}

func newEpochModel(epoch int64, base []ast.Atom) *epochModel {
	m := &epochModel{facts: map[string]ast.Atom{}, at: map[int64][]ast.Atom{}}
	for _, a := range base {
		m.facts[a.String()] = a
	}
	m.record(epoch)
	return m
}

// record stores the current fact set as epoch's; the caller holds mu or is
// the only writer.
func (m *epochModel) record(epoch int64) {
	snap := make([]ast.Atom, 0, len(m.facts))
	for _, a := range m.facts {
		snap = append(snap, a)
	}
	m.at[epoch] = snap
}

func (m *epochModel) commit(epoch int64, assert, retract []ast.Atom) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range retract {
		delete(m.facts, a.String())
	}
	for _, a := range assert {
		m.facts[a.String()] = a
	}
	m.record(epoch)
}

func (m *epochModel) factsAt(epoch int64) ([]ast.Atom, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	facts, ok := m.at[epoch]
	return facts, ok
}

// forwardEdgeBatch draws a batch over a DAG on nodes 1..n (edges only go
// up, so no strategy diverges): mostly asserts, some retracts.
func forwardEdgeBatch(r *rand.Rand, n int) (assert, retract []ast.Atom) {
	for k := 1 + r.Intn(3); k > 0; k-- {
		i := 1 + r.Intn(n-1)
		j := i + 1 + r.Intn(n-i)
		a := ast.Atom{Pred: "e", Args: []ast.Term{ast.C(fmt.Sprint(i)), ast.C(fmt.Sprint(j))}}
		if r.Intn(3) == 0 {
			retract = append(retract, a)
		} else {
			assert = append(assert, a)
		}
	}
	return assert, retract
}

func sameAtoms(a, b []ast.Atom) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, x := range a {
		set[x.String()] = true
	}
	for _, x := range b {
		if !set[x.String()] {
			return false
		}
	}
	return true
}

// TestAliasedEvaluationMatchesLoadFacts: for every strategy, executor and
// worker count, evaluating over Version.EvalDB — frozen relations aliased,
// nothing loaded — gives exactly what loading the pinned version's facts
// into a fresh DB gives, while a writer keeps publishing new versions. Each
// evaluation sees the facts of the epoch it pinned and no other.
func TestAliasedEvaluationMatchesLoadFacts(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	const nodes = 9 // top-down walks every path of the DAG: keep it small
	var initial []ast.Atom
	for i := 1; i < nodes; i++ {
		initial = append(initial, mustAtom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	base, err := engine.NewBase(initial, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := newEpochModel(0, initial)

	type combo struct {
		strategy Strategy
		stream   bool
		workers  int
	}
	var combos []combo
	for _, s := range AllStrategies() {
		for _, w := range []int{1, 2, 8} {
			combos = append(combos, combo{s, false, w})
			if MaterializableStrategy(s) {
				combos = append(combos, combo{s, true, w})
			}
		}
	}
	pl := New(p, query)
	check := func(c combo, wantDegraded bool) {
		v := base.Current()
		opts := engine.Options{Workers: c.workers}
		if c.stream {
			opts.Streaming = engine.StreamAuto
		}
		got, err := pl.Run(c.strategy, v.EvalDB(), opts)
		if err != nil {
			t.Errorf("%v stream=%v workers=%d at epoch %d: %v", c.strategy, c.stream, c.workers, v.Epoch(), err)
			return
		}
		if wantDegraded != got.Degraded {
			t.Errorf("%v workers=%d: degraded = %v, want %v", c.strategy, c.workers, got.Degraded, wantDegraded)
		}
		pinned := v.Atoms()
		if committed, ok := model.factsAt(v.Epoch()); !ok || !sameAtoms(pinned, committed) {
			t.Errorf("version at epoch %d does not hold that epoch's facts", v.Epoch())
		}
		want := scratchAnswers(t, p, query, c.strategy, pinned, 1)
		if d := diffAnswers(got.Answers, want); d != "" {
			t.Errorf("%v stream=%v workers=%d at epoch %d: aliased evaluation differs from LoadFacts: %s",
				c.strategy, c.stream, c.workers, v.Epoch(), d)
		}
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			assert, retract := forwardEdgeBatch(r, nodes)
			tx, err := base.Begin(assert, retract)
			if err != nil {
				t.Errorf("Begin: %v", err)
				return
			}
			if tx.Changed() {
				model.commit(tx.Epoch(), tx.Assert, tx.Retract)
			}
			tx.Commit()
		}
	}()

	var readers sync.WaitGroup
	const nReaders = 4
	for g := 0; g < nReaders; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; i < len(combos); i += nReaders {
				check(combos[i], false)
				check(combos[i], false)
			}
		}(g)
	}
	readers.Wait()

	// The degraded path: every parallel worker dies at start, Eval resets the
	// stamps it owns (never the image's) and retries sequentially over the
	// same aliased DB. The writer is still running.
	disable := faultinject.Enable(faultinject.Config{
		Seed: 1, MaxPeriod: 1, Points: []faultinject.Point{faultinject.WorkerStart},
	})
	for _, s := range []Strategy{SemiNaive, Magic, FactoredOptimized} {
		for _, w := range []int{2, 8} {
			check(combo{s, false, w}, true)
		}
	}
	disable()
	close(stop)
	writer.Wait()
	if base.Current().Epoch() == 0 {
		t.Error("the writer never published a version")
	}
}

// modelLog is a DurableLog that keeps the epoch model in step: Append runs
// before the batch is published, so the model always knows an epoch before
// any reader can be served it. It also serves its batches back, so entries
// that fall behind the (deliberately short) in-memory log catch up through
// the durable path.
type modelLog struct {
	model   *epochModel
	mu      sync.Mutex
	batches []MutationBatch
}

func (l *modelLog) Append(b MutationBatch) error {
	l.model.commit(b.Epoch, b.Assert, b.Retract)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, b)
	return nil
}

func (l *modelLog) Since(after int64) ([]MutationBatch, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < 0 || after > int64(len(l.batches)) {
		return nil, false
	}
	return append([]MutationBatch(nil), l.batches[after:]...), true
}

// TestMaterializerSplitLocksStress hammers Serve, Apply and eviction from
// several goroutines over a registry too small for the shapes and a log too
// short for the laggards. Every serve must return exactly the answers of
// the epoch it reports; the test finishing is the no-deadlock assertion
// (run it with a -timeout).
func TestMaterializerSplitLocksStress(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 12
	var initial []ast.Atom
	for i := 1; i < nodes; i++ {
		initial = append(initial, mustAtom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	model := newEpochModel(0, initial)
	log := &modelLog{model: model}
	m, err := NewMaterializer(p, nil, initial, nil, MaterializerOptions{Entries: 4, LogLimit: 4, Durable: log})
	if err != nil {
		t.Fatal(err)
	}
	// Eight shapes over four entries: some get evicted, some are served
	// again before they are.
	strategies := []Strategy{SemiNaive, Magic, FactoredOptimized, Counting}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(11))
			for i := 0; i < 120; i++ {
				assert, retract := forwardEdgeBatch(r, nodes)
				if _, err := m.Apply(assert, retract); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(100 + g)))
				for i := 0; i < 40; i++ {
					query := mustAtom(t, fmt.Sprintf("t(%d, Y)", 1+r.Intn(2)))
					s := strategies[r.Intn(len(strategies))]
					res, err := m.Serve(context.Background(), query, s)
					if err != nil {
						t.Errorf("Serve %s %v: %v", query, s, err)
						return
					}
					facts, ok := model.factsAt(res.Epoch)
					if !ok {
						t.Errorf("Serve reported epoch %d, which was never committed", res.Epoch)
						return
					}
					if d := diffAnswers(res.Answers, scratchAnswers(t, p, query, s, facts, 1)); d != "" {
						t.Errorf("%s %v (%s) at epoch %d: %s", query, s, res.Kind, res.Epoch, d)
					}
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Serve/Apply/evict did not finish: deadlock on the split locks")
	}
	// A laggard, deterministically: one entry falls one batch behind (the
	// in-memory log covers it), then six (only the durable log does).
	query, ctx := mustAtom(t, "t(1, Y)"), context.Background()
	for _, behind := range []int{0, 1, 6} {
		for i := 0; i < behind; i++ {
			e := fmt.Sprintf("e(%d,%d)", 100+behind, 200+i)
			if _, err := m.Apply(matFacts(t, e), nil); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Serve(ctx, query, Magic)
		if err != nil || res.Epoch != m.Epoch() || (behind > 0 && (res.Kind != "delta" || res.Batches != behind)) {
			t.Fatalf("entry %d batches behind: %+v err=%v", behind, res, err)
		}
	}
	st := m.Stats()
	if st.Evictions == 0 || st.Builds == 0 || st.Deltas < 2 || st.WalDeltas == 0 {
		t.Errorf("the registry was not exercised: %d evictions, %d builds, %d deltas, %d from the durable log",
			st.Evictions, st.Builds, st.Deltas, st.WalDeltas)
	}
	if st.Epoch != m.Epoch() || st.BaseFacts != m.BaseCount() {
		t.Errorf("Stats disagrees with the image: epoch %d vs %d, facts %d vs %d",
			st.Epoch, m.Epoch(), st.BaseFacts, m.BaseCount())
	}
}

// TestMaterializerEntriesHoldTheirSlice: an entry carries the relations its
// program names and nothing else, a batch on predicates it never reads
// replays as a delta that changes nothing, and a query on a predicate no
// rule names still sees that predicate's facts.
func TestMaterializerEntriesHoldTheirSlice(t *testing.T) {
	u, err := parser.Parse(rlTCSrc + `
		sg(X,Y) :- flat(X,Y).
		sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).
		e(1,2). e(2,3). e(3,4).
		up(a,b). up(c,b). flat(b,b). down(b,a). down(b,c).
		s0(1). s0(2). s0(3). color(red). color(blue).`)
	if err != nil {
		t.Fatal(err)
	}
	p := u.Program()
	m, err := NewMaterializer(p, nil, u.Facts, nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The same program over the e facts alone: what an entry for t(1,Y)
	// should hold whatever else the base contains.
	var edges []ast.Atom
	for _, a := range u.Facts {
		if a.Pred == "e" {
			edges = append(edges, a)
		}
	}
	onlyE, err := NewMaterializer(p, nil, edges, nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	entryDB := func(m *Materializer, query ast.Atom, s Strategy) *engine.DB {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.entries[query.CanonicalKey()+"|"+s.String()].mat.DB()
	}
	query := mustAtom(t, "t(1, Y)")
	for _, s := range []Strategy{Magic, FactoredOptimized} {
		res, err := m.Serve(ctx, query, s)
		if err != nil || res.Kind != "build" || len(res.Answers) != 3 {
			t.Fatalf("%v: %+v err=%v", s, res, err)
		}
		if _, err := onlyE.Serve(ctx, query, s); err != nil {
			t.Fatal(err)
		}
		db := entryDB(m, query, s)
		for _, pred := range []string{"up", "down", "flat", "s0", "color", "sg"} {
			if db.Lookup(pred) != nil {
				t.Errorf("%v entry for %s holds relation %s", s, query, pred)
			}
		}
		if got, want := db.StorageStats().Facts, entryDB(onlyE, query, s).StorageStats().Facts; got != want {
			t.Errorf("%v entry holds %d facts; over the e facts alone it holds %d", s, got, want)
		}
	}

	// A batch on predicates t never reads: the epoch moves, the entry
	// replays it as a delta, and no fact of the entry changes.
	before := entryDB(m, query, Magic).TotalFacts()
	if _, err := m.Apply(matFacts(t, "down(b,d)", "s0(9)"), matFacts(t, "color(red)")); err != nil {
		t.Fatal(err)
	}
	res, err := m.Serve(ctx, query, Magic)
	if err != nil || res.Kind != "delta" || res.Batches != 1 || res.Epoch != 1 || len(res.Answers) != 3 {
		t.Fatalf("after an unrelated batch: %+v err=%v", res, err)
	}
	if db := entryDB(m, query, Magic); db.TotalFacts() != before || db.Lookup("down") != nil {
		t.Errorf("an unrelated batch changed the entry: %d facts, was %d", db.TotalFacts(), before)
	}
	if ratio := m.Stats().ChangeRatio; ratio.Max > 1 || ratio.Sum != 2 {
		// Two builds observed 1.0 each; the delta must have observed 0.
		t.Errorf("change ratios sum to %v (max %v), want 2 builds at 1 and one delta at 0", ratio.Sum, ratio.Max)
	}

	// sg reads up/down/flat, so the same batch reaches a sg entry.
	sg := mustAtom(t, "sg(a, Y)")
	if res, err = m.Serve(ctx, sg, Magic); err != nil || len(res.Answers) != 3 {
		t.Fatalf("sg(a,Y) at epoch 1: %+v err=%v", res, err)
	}

	// color appears in no rule: a semi-naive entry keeps it because the
	// query names it, and follows its batches.
	color := mustAtom(t, "color(X)")
	if res, err = m.Serve(ctx, color, SemiNaive); err != nil || len(res.Answers) != 1 || !res.Answers["(blue)"] {
		t.Fatalf("color(X) at epoch 1: %+v err=%v", res, err)
	}
	if _, err := m.Apply(matFacts(t, "color(green)"), nil); err != nil {
		t.Fatal(err)
	}
	if res, err = m.Serve(ctx, color, SemiNaive); err != nil || res.Kind != "delta" || len(res.Answers) != 2 {
		t.Fatalf("color(X) at epoch 2: %+v err=%v", res, err)
	}
}

// TestSharedStoreStaysBounded: ten thousand cold queries, each binding a
// constant nobody has seen, served materialized and from scratch, leave the
// shared store exactly as large as the first one did.
func TestSharedStoreStaysBounded(t *testing.T) {
	queries := 10000
	if testing.Short() {
		queries = 500
	}
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := edgeAtoms(t, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4})
	m, err := NewMaterializer(p, nil, base, nil, MaterializerOptions{Entries: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var size int
	for i := 0; i < queries; i++ {
		query := mustAtom(t, fmt.Sprintf("t(q%d, Y)", i))
		res, err := m.Serve(ctx, query, Magic)
		if err != nil || res.Kind != "build" || len(res.Answers) != 0 {
			t.Fatalf("%s: %+v err=%v", query, res, err)
		}
		if i%10 == 0 {
			if _, err := New(p, query).Run(Counting, m.Version().EvalDB(), engine.Options{}); err != nil {
				t.Fatalf("scratch %s: %v", query, err)
			}
		}
		if i == 0 {
			size = m.Version().Store().Size()
		}
	}
	if got := m.Version().Store().Size(); got != size {
		t.Fatalf("the shared store grew from %d to %d terms over %d cold queries", size, got, queries)
	}
	if st := m.Stats(); st.Entries != 4 || st.Evictions != int64(queries-4) {
		t.Errorf("registry: %d entries, %d evictions", st.Entries, st.Evictions)
	}
}
