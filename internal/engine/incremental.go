package engine

// Incremental view maintenance: a Materialization keeps the least fixpoint
// of a program over a mutable EDB, refreshed in O(change) per mutation
// batch instead of O(database) per query.
//
// The round stamps the semi-naive evaluator already carries generalize to
// a second role here. Within one maintenance wave w, the stamps implement
// the delta discipline exactly as in eval.go: facts stamped w are the
// wave's delta, facts stamped below w are older state, and facts derived
// during the wave are stamped w+1 so they become the next wave's delta.
// Base rows a materialization reads from the image are never stamped: they
// stay at 0, and a build's wave 0 joins them before any delta exists.
//
// Insertions use semi-naive delta propagation with an exact-once window
// scheme: every body position of a delta predicate is decomposed the
// classic way (before the delta position [0,w-1], the delta position
// [w,w], after it [0,w]), and — unlike a from-scratch fixpoint — positions
// of non-delta predicates are windowed [0,w] rather than unrestricted, so
// same-wave emissions (stamped w+1) are never joined against and each new
// body instantiation is counted exactly once. That exact-once property is
// what lets the same pass maintain per-fact derivation counts.
//
// Deletions are counting-based (Gupta–Mumick): each fact's count is the
// number of immediate derivations currently supporting it (EDB membership
// counts as one support). Retracting a fact decrements its count; a fact
// whose count reaches zero dies, and a deletion wave decrements the heads
// of every body instantiation the dying facts participated in, using the
// mirrored window scheme (alive [0,0] before the dying position, dying
// [1,1] at it, alive-or-dying [0,1] after). Counts are unsound under
// recursion — a fact can support itself through a cycle — so when the
// downstream closure of a retracted predicate touches a recursive stratum
// the affected IDB predicates are cleared and recomputed from the
// surviving facts instead (DRed's rederivation phase, done eagerly).
import (
	"context"
	"errors"
	"fmt"
	"slices"

	"factorlog/internal/ast"
	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
)

// ErrMutation is returned (wrapped) when a mutation batch is invalid: a
// non-ground atom or an arity conflict. The batch is rejected before any
// state changes. Asserting a fact of a derived (IDB) predicate is legal —
// it adds EDB support, exactly like a ground fact for that predicate in
// the program source — so no predicate check applies. Callers test with
// errors.Is.
var ErrMutation = errors.New("invalid mutation")

// MaterializeOptions bounds a materialization's maintenance work. Nothing
// here makes a batch durable: the write-ahead append belongs to the layer
// that owns the base image (pipeline.Materializer.Apply, between Base.Begin
// and Commit).
type MaterializeOptions struct {
	// StartEpoch is the epoch Materialize tags the initial build with (a
	// build over a Version starts at the version's epoch); each successful
	// Apply advances the epoch by one.
	StartEpoch int64
	// MaxWaves bounds maintenance waves per operation; 0 means the
	// default (1<<20), a backstop against runaway cascades.
	MaxWaves int
	// MaxFacts bounds facts derived by one build or Apply; 0 = unlimited.
	// Exceeding it fails the operation with ErrBudgetExceeded.
	MaxFacts int
	// MaxBytes bounds the footprint of the relations the materialization
	// owns, checked at wave boundaries like Options.MaxBytes; 0 = unlimited.
	// Image relations it reads by reference are not charged, as for an Eval
	// over Version.EvalDB (DB.StorageStats skips frozen relations).
	MaxBytes int64
}

const defaultMaxWaves = 1 << 20

// ApplyStats reports the work one mutation batch (or rebuild) performed.
type ApplyStats struct {
	// Asserted and Retracted count effective EDB changes; Noop* count
	// batch entries that changed nothing (assert of a present fact,
	// retract of an absent one).
	Asserted, Retracted       int
	NoopAsserts, NoopRetracts int
	// NewFacts and DeletedFacts count presence changes in the
	// materialized DB (EDB and IDB). Under a stratum rebuild these count
	// the gross cleared/recomputed facts — rebuilds really are O(stratum)
	// and the stats say so.
	NewFacts, DeletedFacts int
	// Inferences counts body instantiations visited by the waves.
	Inferences int
	// Waves counts maintenance waves (insertion + deletion); the wave 0 of
	// a build or DRed rebuild (see initialWaves) is not counted.
	Waves int
	// Rebuilt reports that the DRed-style stratum rebuild ran (a
	// retraction's downstream closure touched a recursive stratum).
	Rebuilt bool
	// Restamped counts the rows whose round stamps the batch visited to
	// zero them before its insertion phase: the rows the previous build or
	// batch stamped, not the database.
	Restamped int
	// Total is the number of live facts after the operation.
	Total int
}

// Changed returns the number of presence changes the batch caused; the
// O(change)/O(db) ratio observability reports is Changed/Total.
func (st ApplyStats) Changed() int { return st.NewFacts + st.DeletedFacts }

// Materialization maintains the fixpoint of a program over a mutable EDB.
// It is not safe for concurrent use; callers serialize (the pipeline
// registry holds its entry's mutex across refresh and answer read, the
// facade is single-threaded).
//
// Its rows come from a base image Version, sliced by relevance: only the
// relations the program names (plus any the caller asks to keep) are
// carried, and only the relations it writes are its own. The mutable EDB
// and the counted database both alias the image's frozen relations and
// clone one (Relation.clone) when they first write it: the counted database
// its IDB heads at the build, a pure-EDB relation once a batch changes it.
// A frozen row has stamp 0 and an implicit derivation count of 1. Terms the
// program's constants bind to, and those later batches introduce, are
// interned in a child of the image's store and die with the
// materialization; the compiled program it runs is shared and holds none.
type Materialization struct {
	prog   *CompiledProgram
	store  *Store // a child of the image's store
	consts []Val  // prog's constant table, bound and interned in store
	// keep lists the predicates carried besides the program's (see Reads).
	keep []string

	base *DB // the mutable EDB (live asserted facts only); frozen aliases until written
	db   *DB // materialized EDB + IDB; owned relations counted, frozen aliases until written
	// rels is db's relation of each of prog's predicates, by id. Every
	// replacement of one of them in db — own's clone on first write, a
	// rebuild — replaces it here too.
	rels  []*Relation
	epoch int64
	dirty bool // a failed Apply poisoned db; rebuild before next use
	opts  MaterializeOptions
	// joins, when non-nil, accumulates the join counters of every
	// insertion wave (probes, matches, new and re-derived heads), the way
	// Options.Trace does for Eval; tests set it to check per-inference cost.
	joins *obsv.RuleStats
}

// Materialize is MaterializeVersion over a private image of baseFacts,
// keeping every predicate: the entry point for callers that hold atoms
// rather than an image. The returned materialization owns its stores;
// render answers through DB().Store.
func Materialize(p *ast.Program, baseFacts []ast.Atom, opts MaterializeOptions) (*Materialization, error) {
	b, err := NewBase(baseFacts, opts.StartEpoch)
	if err != nil {
		return nil, err
	}
	v := b.Current()
	return MaterializeVersion(context.TODO(), p, v, opts, v.Preds()...)
}

// MaterializeVersion is Compile followed by the compiled program's
// Materialize, for callers that build a program once; a server builds the
// same program for many constants and compiles it once.
func MaterializeVersion(ctx context.Context, p *ast.Program, v *Version, opts MaterializeOptions, keep ...string) (*Materialization, error) {
	cp, err := Compile(p)
	if err != nil {
		return nil, err
	}
	return cp.Materialize(ctx, v, nil, opts, keep...)
}

// Materialize computes the program's fixpoint, with derivation counts, over
// the base image v. The build binds only constants: it interns the
// program's constant table into a child of v's store, each constant bind
// names replaced by its binding (a template parameter by the query's
// constant). Only the relations the program names in a head or a body —
// and those listed in keep, e.g. a query's own predicate when no rule
// mentions it — are carried into the materialization; the rest of the image
// is never touched. The epoch starts at v's. ctx bounds the build:
// cancellation or a deadline stops it with the engine's typed errors and
// nothing is returned.
func (cp *CompiledProgram) Materialize(ctx context.Context, v *Version, bind map[string]string, opts MaterializeOptions, keep ...string) (*Materialization, error) {
	if opts.MaxWaves == 0 {
		opts.MaxWaves = defaultMaxWaves
	}
	store := v.store.Child()
	m := &Materialization{
		prog:   cp,
		store:  store,
		consts: internConsts(cp.consts, store, bind),
		keep:   keep,
		epoch:  v.epoch,
		opts:   opts,
	}
	m.base = NewDBWith(store)
	carry := func(pred string) error {
		rel := v.rels[pred]
		if rel == nil || m.base.relations[pred] != nil {
			return nil
		}
		if id := cp.id(pred); id >= 0 && cp.preds[id].arity != rel.arity {
			return fmt.Errorf("%w: %s used with arity %d and %d", ErrMutation, pred, cp.preds[id].arity, rel.arity)
		}
		m.base.relations[pred] = rel
		return nil
	}
	for i := range cp.preds {
		if err := carry(cp.preds[i].name); err != nil {
			return nil, err
		}
	}
	for _, pred := range keep {
		if err := carry(pred); err != nil {
			return nil, err
		}
	}
	if err := m.rebuild(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// Reads reports whether the materialization carries pred's base rows: a
// rule of its program names pred, or the builder asked to keep it. Facts of
// any other predicate cannot change its answers.
func (m *Materialization) Reads(pred string) bool {
	return m.prog.id(pred) >= 0 || slices.Contains(m.keep, pred)
}

// DB returns the materialized database (EDB + IDB, derivation-counted).
// Treat it as read-only; Answers/AnswerSet skip dead rows.
func (m *Materialization) DB() *DB { return m.db }

// Epoch returns the epoch of the last successfully applied batch.
func (m *Materialization) Epoch() int64 { return m.epoch }

// Dirty reports that the last Apply failed mid-flight; the next Apply or
// Rebuild restores consistency by recomputing from the (rolled-back) base.
func (m *Materialization) Dirty() bool { return m.dirty }

// BaseCount returns the number of live EDB facts.
func (m *Materialization) BaseCount() int { return m.base.TotalFacts() }

// BaseFacts returns the live EDB facts as ground atoms, in relation order.
func (m *Materialization) BaseFacts() []ast.Atom { return m.base.liveAtoms() }

// validate interns and checks a batch without touching any state, so an
// invalid batch is rejected atomically with ErrMutation. A predicate's
// arity is the program's, else that of its base relation.
func (m *Materialization) validate(atoms []ast.Atom) ([][]Val, error) {
	tuples := make([][]Val, len(atoms))
	for i, a := range atoms {
		known := -1
		if id := m.prog.id(a.Pred); id >= 0 {
			known = m.prog.preds[id].arity
		} else if rel := m.base.Lookup(a.Pred); rel != nil {
			known = rel.arity
		}
		if known >= 0 && known != len(a.Args) {
			return nil, fmt.Errorf("%w: %s used with arity %d and %d", ErrMutation, a.Pred, known, len(a.Args))
		}
		tuple, err := groundTuple(m.store, a)
		if err != nil {
			return nil, err
		}
		tuples[i] = tuple
	}
	return tuples, nil
}

// own returns pred's relation in db for writing (DB.own), keeping rels in
// step when the write clones a relation aliased from the image.
func (m *Materialization) own(pred string, arity int) (*Relation, error) {
	rel, err := m.db.own(pred, arity)
	if err == nil {
		if id := m.prog.id(pred); id >= 0 {
			m.rels[id] = rel
		}
	}
	return rel, err
}

// Rebuild recomputes the materialization from the base EDB (clearing a
// dirty flag left by a failed Apply). The epoch is unchanged: the base
// holds exactly the state of the last successful batch.
func (m *Materialization) Rebuild(ctx context.Context) (err error) {
	defer recoverTo("apply", &err)
	return m.rebuild(ctx)
}

// Apply applies one mutation batch: retractions first, then assertions,
// so a batch containing both for one fact leaves it present. On success
// the epoch advances by one. The batch is atomic: validation errors
// reject it untouched, and a failure mid-maintenance (panic, budget,
// cancellation) rolls the base EDB back and poisons the materialized DB,
// which is rebuilt from the restored base on the next operation — the
// observable state is always that of the last successful epoch.
func (m *Materialization) Apply(ctx context.Context, assert, retract []ast.Atom) (st ApplyStats, err error) {
	var undoAssert, undoRetract []factRef
	mutating := false
	defer func() {
		if err == nil || !mutating {
			return
		}
		// Roll the base back so it reflects the last successful epoch,
		// then poison the materialized DB: partial wave state is not
		// recoverable in place, but a rebuild from the restored base is.
		// (Every relation named here was made private when the batch first
		// wrote to it.)
		for _, f := range undoAssert {
			m.base.Lookup(f.pred).remove(f.tuple)
		}
		for _, f := range undoRetract {
			m.base.Lookup(f.pred).Insert(f.tuple)
		}
		m.dirty = true
	}()
	defer recoverTo("apply", &err)
	faultinject.Hit(faultinject.FactsApply)

	if m.dirty {
		if err := m.rebuild(ctx); err != nil {
			return st, err
		}
	}
	retractTuples, err := m.validate(retract)
	if err != nil {
		return st, err
	}
	assertTuples, err := m.validate(assert)
	if err != nil {
		return st, err
	}

	mutating = true
	mt := m.maintainer(ctx, &st)

	// Phase 1: retractions. Remove EDB support; facts whose derivation
	// count hits zero die and cascade.
	var victims []victimRef
	var retracted []int32 // ids of the program predicates retracted from
	for i, a := range retract {
		brel := m.base.Lookup(a.Pred)
		if brel == nil || !brel.Contains(retractTuples[i]) {
			st.NoopRetracts++
			continue
		}
		if brel, err = m.base.own(a.Pred, len(a.Args)); err != nil {
			return st, fmt.Errorf("%w: %v", ErrMutation, err)
		}
		brel.remove(retractTuples[i])
		undoRetract = append(undoRetract, factRef{a.Pred, retractTuples[i]})
		st.Retracted++
		id := m.prog.id(a.Pred)
		if id >= 0 && !slices.Contains(retracted, id) {
			retracted = append(retracted, id)
		}
		rel, rerr := m.own(a.Pred, len(a.Args))
		if rerr != nil {
			return st, fmt.Errorf("%w: %v", ErrMutation, rerr)
		}
		rel.EnableCounts()
		row, ok := rel.findRow(retractTuples[i])
		if !ok {
			continue
		}
		if c := rel.addCount(row, -1); c == 0 {
			victims = append(victims, victimRef{rel, id, row})
		} else if c < 0 {
			panic(fmt.Sprintf("engine: negative derivation count for %s", a.Pred))
		}
	}
	if closure, recursive := m.retractionClosure(retracted); recursive {
		// Counting is unsound here: kill the directly retracted facts,
		// then clear and recompute the affected IDB strata.
		for _, v := range victims {
			v.rel.deleteRow(v.row)
			st.DeletedFacts++
		}
		if err := mt.rebuildPreds(closure); err != nil {
			return st, err
		}
		st.Rebuilt = true
	} else if len(victims) > 0 {
		if err := mt.runDeleteWaves(victims); err != nil {
			return st, err
		}
	}

	// Phase 2: assertions. New EDB facts are the wave-1 delta.
	st.Restamped = m.db.resetRounds()
	mt.wave = 0
	mt.newCounts.reset()
	for i, a := range assert {
		brel, rerr := m.base.Rel(a.Pred, len(a.Args))
		if rerr != nil {
			return st, fmt.Errorf("%w: %v", ErrMutation, rerr)
		}
		if brel.Contains(assertTuples[i]) {
			st.NoopAsserts++
			continue
		}
		if brel, rerr = m.base.own(a.Pred, len(a.Args)); rerr != nil {
			return st, fmt.Errorf("%w: %v", ErrMutation, rerr)
		}
		brel.Insert(assertTuples[i])
		undoAssert = append(undoAssert, factRef{a.Pred, assertTuples[i]})
		st.Asserted++
		rel, rerr := m.own(a.Pred, len(a.Args))
		if rerr != nil {
			return st, fmt.Errorf("%w: %v", ErrMutation, rerr)
		}
		rel.EnableCounts()
		// A fact that is already derivable only gains EDB support: its
		// presence is unchanged — a count bump, not a delta. A predicate
		// no rule reads is no delta either.
		if rel.insertCounted(assertTuples[i], 1) {
			if id := m.prog.id(a.Pred); id >= 0 {
				mt.newCounts.add(id, 1)
			}
			st.NewFacts++
		}
	}
	if err := mt.runInsertWaves(nil); err != nil {
		return st, err
	}

	m.epoch++
	m.dirty = false
	st.Total = m.db.TotalFacts()
	return st, nil
}

type factRef struct {
	pred  string
	tuple []Val
}

// victimRef names a live arena row whose derivation count reached zero: its
// relation, the relation's predicate id (-1 for a predicate the program
// never names) and the row.
type victimRef struct {
	rel *Relation
	id  int32
	row int32
}

// retractionClosure returns the IDB predicates downstream of the retracted
// program predicates (themselves included) and whether any predicate of
// the downstream closure belongs to a recursive stratum.
func (m *Materialization) retractionClosure(retracted []int32) (idb []int32, recursive bool) {
	seen := make([]bool, len(m.prog.preds))
	stack := append([]int32(nil), retracted...)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		info := &m.prog.preds[p]
		recursive = recursive || info.recursive
		if info.idb {
			idb = append(idb, p)
		}
		stack = append(stack, info.downstream...)
	}
	return idb, recursive
}

// maintainer returns a maintainer for one operation over m.
func (m *Materialization) maintainer(ctx context.Context, st *ApplyStats) *maintainer {
	mt := &maintainer{m: m, ctx: ctx, st: st}
	mt.newCounts.init(len(m.prog.preds))
	mt.delta.init(len(m.prog.preds))
	mt.visiting = make([]bool, len(m.prog.rules))
	return mt
}

// rebuild recomputes the whole materialization from the base EDB: a base
// relation still frozen goes into a fresh counted database by pointer, one
// an earlier batch wrote is cloned, every head is made private, and the
// rules run to fixpoint over it.
func (m *Materialization) rebuild(ctx context.Context) error {
	db := NewDBWith(m.store)
	for pred, brel := range m.base.relations {
		if !brel.frozen {
			brel = brel.clone(0)
		}
		db.relations[pred] = brel
	}
	rels, err := prepareRelations(db, m.prog)
	if err != nil {
		return err
	}
	for _, rel := range db.relations {
		if !rel.frozen {
			rel.EnableCounts()
		}
	}
	var st ApplyStats
	old, oldRels := m.db, m.rels
	m.db, m.rels = db, rels
	if err := m.maintainer(ctx, &st).initialWaves(nil); err != nil {
		m.db, m.rels = old, oldRels
		return err
	}
	m.dirty = false
	return nil
}

// rebuildPreds clears the IDB predicates rebuild (ids) and recomputes them
// from the surviving facts — the DRed rederivation phase, run eagerly over
// the affected strata only.
func (mt *maintainer) rebuildPreds(rebuild []int32) error {
	m := mt.m
	if len(rebuild) == 0 {
		return nil
	}
	// Each cleared relation is replaced by a fresh one rather than having
	// every row tombstoned: nothing is leaked per rebuild, and later
	// row-0 scans do not walk a stratum's worth of dead rows. Re-seed the
	// EDB support of rebuilt predicates (a retractable predicate can also
	// be derivable) as base state, stamp 0.
	active := make([]bool, len(m.prog.rules))
	for _, id := range rebuild {
		info := &m.prog.preds[id]
		mt.st.DeletedFacts += m.rels[id].Live()
		fresh := NewRelation(info.arity)
		fresh.EnableCounts()
		m.db.relations[info.name] = fresh
		m.rels[id] = fresh
		if brel := m.base.Lookup(info.name); brel != nil {
			for pos := int32(0); pos < int32(brel.Len()); pos++ {
				if brel.Round(pos) < 0 {
					continue
				}
				fresh.Insert(brel.Tuple(pos))
				mt.st.NewFacts++
			}
		}
	}
	for _, r := range m.prog.rules {
		active[r.idx] = slices.Contains(rebuild, r.head)
	}
	return mt.initialWaves(active)
}

// maintainer runs maintenance waves over the materialized DB, reusing the
// evaluator's compiled rules and join runner with explicit round windows.
type maintainer struct {
	m   *Materialization
	ctx context.Context
	st  *ApplyStats

	rn   runner
	wave int32
	// newCounts holds the facts stamped wave+1, per predicate id, and delta
	// the running wave's (stamped wave); they trade places at every wave. A
	// deletion wave's dying predicates are counted in delta too.
	newCounts, delta predCounts
	// head is the relation the running pass derives into and headNew the
	// facts it added so far, folded into newCounts when the pass ends.
	head    *Relation
	headNew int
	next    []victimRef // next deletion wave's victims
	// waveRules lists the rules the running wave visits, and visiting marks
	// them by rule index while the list is gathered.
	waveRules  []int32
	visiting   []bool
	occScratch []int
}

// initialWaves runs the active rules (nil: all of them) to fixpoint over
// the live facts: the initial build (all rules) and the DRed rederivation
// (the rebuilt strata's rules) are the same computation over different rule
// subsets. Wave 0 runs each rule once over the stamp-0 rows — every live
// row, frozen ones included — emitting heads stamped 1 for the insertion
// waves to go on from; each body instantiation is still counted once.
func (mt *maintainer) initialWaves(active []bool) error {
	m := mt.m
	m.db.resetRounds()
	buildIndexes(m.rels, m.prog.rules)
	mt.wave = 0
	mt.newCounts.reset()
	mt.rn = runner{db: m.db, preds: m.rels, consts: m.consts, sink: mt.insertSink}
	// Bodyless rules (e.g. magic seeds) fire exactly once, here, outside
	// the join counters.
	for _, r := range m.prog.rules {
		if active != nil && !active[r.idx] {
			continue
		}
		mt.rn.cur = m.joins
		if len(r.body) == 0 {
			mt.rn.cur = nil
		}
		mt.rn.setLimits(r, nil, -1, 0, roundRange{0, 0})
		if err := mt.runPass(r, nil); err != nil {
			return err
		}
	}
	return mt.runInsertWaves(active)
}

// runPass runs one pass of r in join order jo (nil: source order) into
// r's head relation, resolved once for the pass; the facts an insertion
// pass adds are folded into newCounts when it ends.
func (mt *maintainer) runPass(r *compiledRule, jo *joinOrder) error {
	mt.head, mt.headNew = mt.m.rels[r.head], 0
	err := mt.rn.runRule(r, jo)
	mt.newCounts.add(r.head, mt.headNew)
	return err
}

// insertSink consumes derived head tuples during insertion waves: a new
// fact is inserted stamped wave+1 (the next delta) with count 1; a
// re-derivation of a live fact bumps its count and does not propagate.
func (mt *maintainer) insertSink(_ *compiledRule, tuple []Val, _ []FactID) error {
	mt.st.Inferences++
	if mt.st.Inferences&ctxCheckMask == 0 {
		if err := contextErr(mt.ctx); err != nil {
			return err
		}
	}
	if !mt.head.insertCounted(tuple, mt.wave+1) {
		if t := mt.rn.cur; t != nil {
			t.Duplicates++
		}
		return nil
	}
	if t := mt.rn.cur; t != nil {
		t.TuplesDerived++
	}
	mt.headNew++
	mt.st.NewFacts++
	if max := mt.m.opts.MaxFacts; max > 0 && mt.st.NewFacts > max {
		return fmt.Errorf("%w: %d facts derived during maintenance", ErrBudgetExceeded, mt.st.NewFacts)
	}
	return nil
}

// runInsertWaves drains newCounts: facts stamped w are joined as the
// wave-w delta, emitting facts stamped w+1, until no wave produces a new
// fact. A wave visits only the active rules (nil: all) that read a
// predicate of its delta.
func (mt *maintainer) runInsertWaves(active []bool) error {
	m := mt.m
	mt.rn.db, mt.rn.preds, mt.rn.consts = m.db, m.rels, m.consts
	mt.rn.cur = m.joins
	mt.rn.sink = mt.insertSink
	for mt.newCounts.total > 0 {
		if err := contextErr(mt.ctx); err != nil {
			return err
		}
		if err := memBudgetErr(m.db, m.opts.MaxBytes); err != nil {
			return err
		}
		if mt.st.Waves >= m.opts.MaxWaves {
			return fmt.Errorf("%w: %d maintenance waves", ErrBudgetExceeded, mt.st.Waves)
		}
		faultinject.Hit(faultinject.DeltaWave)
		mt.delta, mt.newCounts = mt.newCounts, mt.delta
		mt.newCounts.reset()
		mt.wave++
		for _, ri := range mt.deltaReaders(active) {
			r := m.prog.rules[ri]
			occs := mt.bodyOccs(r)
			for _, li := range occs {
				mt.rn.setLimits(r, occs, li, mt.wave, roundRange{0, mt.wave})
				if err := mt.runPass(r, mt.rn.passOrder(r, li)); err != nil {
					return err
				}
			}
		}
		mt.st.Waves++
	}
	return nil
}

// deltaReaders returns, in program order, the active rules (nil: all) that
// read a predicate of the running wave's delta.
func (mt *maintainer) deltaReaders(active []bool) []int32 {
	rules := mt.waveRules[:0]
	for _, p := range mt.delta.ids {
		for _, ri := range mt.m.prog.preds[p].readers {
			if !mt.visiting[ri] && (active == nil || active[ri]) {
				mt.visiting[ri] = true
				rules = append(rules, ri)
			}
		}
	}
	for _, ri := range rules {
		mt.visiting[ri] = false
	}
	slices.Sort(rules)
	mt.waveRules = rules
	return rules
}

// bodyOccs returns the body positions of r whose predicate is in the
// running wave's delta.
func (mt *maintainer) bodyOccs(r *compiledRule) []int {
	occs := mt.occScratch[:0]
	for i := range r.body {
		if mt.delta.n[r.body[i].id] > 0 {
			occs = append(occs, i)
		}
	}
	mt.occScratch = occs
	return occs
}

// runDeleteWaves cascades a set of dying facts: each wave stamps the
// dying rows 1 (alive rows are 0; a dying row is always owned), decrements
// the head count of every body instantiation that includes at least one
// dying fact — counted exactly once at its first dying position — then
// kills the wave's rows. Heads whose count reaches zero form the next wave.
func (mt *maintainer) runDeleteWaves(victims []victimRef) error {
	m := mt.m
	m.db.resetRounds()
	buildIndexes(m.rels, m.prog.rules)
	mt.rn = runner{db: m.db, preds: m.rels, consts: m.consts, sink: mt.deleteSink}
	wave := victims
	for len(wave) > 0 {
		if err := contextErr(mt.ctx); err != nil {
			return err
		}
		if mt.st.Waves >= m.opts.MaxWaves {
			return fmt.Errorf("%w: %d maintenance waves", ErrBudgetExceeded, mt.st.Waves)
		}
		faultinject.Hit(faultinject.DeltaWave)
		mt.delta.reset()
		for _, v := range wave {
			v.rel.stampDying(v.row)
			if v.id >= 0 {
				mt.delta.add(v.id, 1)
			}
		}
		mt.next = mt.next[:0]
		for _, ri := range mt.deltaReaders(nil) {
			r := m.prog.rules[ri]
			occs := mt.bodyOccs(r)
			for _, li := range occs {
				mt.rn.setLimits(r, occs, li, 1, roundRange{0, 1})
				if err := mt.runPass(r, mt.rn.passOrder(r, li)); err != nil {
					return err
				}
			}
		}
		for _, v := range wave {
			v.rel.deleteRow(v.row)
			mt.st.DeletedFacts++
		}
		mt.st.Waves++
		wave = append(wave[:0:0], mt.next...)
	}
	return nil
}

// deleteSink decrements the derivation count of a head fact that just
// lost a body instantiation; a count reaching zero schedules the row for
// the next wave. Rows already dying this wave are skipped — their counts
// no longer matter.
func (mt *maintainer) deleteSink(r *compiledRule, tuple []Val, _ []FactID) error {
	mt.st.Inferences++
	if mt.st.Inferences&ctxCheckMask == 0 {
		if err := contextErr(mt.ctx); err != nil {
			return err
		}
	}
	rel := mt.head
	row, ok := rel.findRow(tuple)
	if !ok {
		return nil
	}
	if rel.Round(row) != 0 {
		return nil // dying this wave
	}
	switch c := rel.addCount(row, -1); {
	case c == 0:
		mt.next = append(mt.next, victimRef{rel, r.head, row})
	case c < 0:
		panic(fmt.Sprintf("engine: negative derivation count for %s", r.headPred))
	}
	return nil
}
