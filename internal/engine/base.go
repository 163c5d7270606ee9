package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"factorlog/internal/ast"
)

// This file is the shared base EDB: one interned, immutable, per-predicate
// columnar image that every reader aliases instead of copying.
//
// A Base owns one long-lived Store — the base vocabulary — and publishes a
// Version: an epoch plus one frozen Relation per predicate. A mutation
// batch builds the next Version by cloning only the relations it touches;
// every other relation is shared with the previous Version by pointer,
// index sets and cached statistics included. A reader that holds a Version
// therefore has snapshot isolation at that epoch for free, for as long as
// it likes, without a lock and without a reference count: nothing it can
// reach is ever written again (Relation.ensureIndex aside, which publishes
// atomically).
//
// Nothing a reader interns lands in the base Store. Version.EvalDB and
// CompiledProgram.Materialize work over a Store.Child, so unseen query
// constants and derived compound terms die with the request or the evicted
// materialization, and the shared store stays bounded by the vocabulary of
// the facts that were ever asserted.

// Base is the versioned base image. Current is safe for concurrent use
// with everything; writers (Begin … Commit, Apply) serialize among
// themselves.
type Base struct {
	store *Store
	wmu   sync.Mutex // held by the one open BaseTx, from Begin to Commit or Abort
	cur   atomic.Pointer[Version]
}

// Version is one immutable state of the base EDB. Its relations are dense:
// a retraction moves the last row into the hole (Relation.remove), so no
// reader ever meets a dead row in a base relation.
type Version struct {
	store *Store
	epoch int64
	rels  map[string]*Relation // frozen; the map is never modified
	facts int                  // live facts across rels
}

// NewBase interns facts into a fresh image at the given epoch. The atoms
// must be ground with one arity per predicate (ErrMutation otherwise);
// duplicates collapse.
func NewBase(facts []ast.Atom, epoch int64) (*Base, error) {
	b := &Base{store: NewStore()}
	v := &Version{store: b.store, epoch: epoch, rels: map[string]*Relation{}}
	for _, f := range facts {
		tuple, err := groundTuple(b.store, f)
		if err != nil {
			return nil, err
		}
		rel := v.rels[f.Pred]
		if rel == nil {
			rel = NewRelation(len(tuple))
			v.rels[f.Pred] = rel
		} else if rel.arity != len(tuple) {
			return nil, fmt.Errorf("%w: %s used with arity %d and %d", ErrMutation, f.Pred, rel.arity, len(tuple))
		}
		if rel.Insert(tuple) {
			v.facts++
		}
	}
	for _, rel := range v.rels {
		rel.freeze()
	}
	b.cur.Store(v)
	return b, nil
}

// groundTuple interns a ground atom's arguments, rejecting variables.
func groundTuple(store *Store, a ast.Atom) ([]Val, error) {
	if !a.Ground() {
		return nil, fmt.Errorf("%w: %s is not ground", ErrMutation, a)
	}
	tuple := make([]Val, len(a.Args))
	for i, t := range a.Args {
		v, err := store.FromAST(t)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrMutation, a, err)
		}
		tuple[i] = v
	}
	return tuple, nil
}

// Current returns the published version.
func (b *Base) Current() *Version { return b.cur.Load() }

// BaseTx is one mutation batch between validation and publication. It
// holds the base's writer lock: exactly one of Commit and Abort must follow
// Begin (Abort after Commit is a no-op, so it can be deferred).
type BaseTx struct {
	// Assert and Retract are the batch's effective changes, in batch order:
	// asserts of present facts and retracts of absent ones are dropped.
	Assert, Retract []ast.Atom

	b    *Base
	next *Version // nil when the batch changes nothing
	open bool
}

// Begin validates one mutation batch against the current version and
// builds, without publishing it, the version the batch produces:
// retractions first, then assertions, so a fact in both lists ends up
// present. Only the relations the batch changes are cloned. An invalid
// batch (non-ground atom, arity conflict) is rejected whole with
// ErrMutation. The caller makes the effective changes durable, or not, and
// then calls Commit or Abort — a batch that could not be logged is simply
// never published.
func (b *Base) Begin(assert, retract []ast.Atom) (tx *BaseTx, err error) {
	b.wmu.Lock()
	defer func() {
		if err != nil {
			b.wmu.Unlock()
		}
	}()
	// Runs before the unlock above: a panic while cloning or inserting
	// (arena growth is a fault point) must not leave the writer lock held.
	defer recoverTo("base", &err)
	cur := b.cur.Load()
	tx = &BaseTx{b: b, open: true}
	touched := map[string]*Relation{}
	// lookup returns the working state of pred: the batch's private clone
	// once it has one, the current version's frozen relation before that.
	lookup := func(pred string, arity int) (*Relation, error) {
		rel := touched[pred]
		if rel == nil {
			rel = cur.rels[pred]
		}
		if rel != nil && rel.arity != arity {
			return nil, fmt.Errorf("%w: %s used with arity %d and %d", ErrMutation, pred, rel.arity, arity)
		}
		return rel, nil
	}
	writable := func(pred string, arity int, rel *Relation) *Relation {
		if rel == nil {
			rel = NewRelation(arity)
		} else if rel.frozen {
			rel = rel.clone(len(assert))
		}
		touched[pred] = rel
		return rel
	}
	facts := cur.facts
	for _, a := range retract {
		if !a.Ground() {
			return nil, fmt.Errorf("%w: %s is not ground", ErrMutation, a)
		}
		rel, err := lookup(a.Pred, len(a.Args))
		if err != nil {
			return nil, err
		}
		if rel == nil {
			continue
		}
		tuple := make([]Val, len(a.Args))
		known := true
		for i, t := range a.Args {
			if tuple[i], known = b.store.Find(t); !known {
				break
			}
		}
		if !known || !rel.Contains(tuple) {
			continue
		}
		writable(a.Pred, rel.arity, rel).remove(tuple)
		tx.Retract = append(tx.Retract, a)
		facts--
	}
	for _, a := range assert {
		tuple, err := groundTuple(b.store, a)
		if err != nil {
			return nil, err
		}
		rel, err := lookup(a.Pred, len(tuple))
		if err != nil {
			return nil, err
		}
		if rel != nil && rel.Contains(tuple) {
			continue
		}
		writable(a.Pred, len(tuple), rel).Insert(tuple)
		tx.Assert = append(tx.Assert, a)
		facts++
	}
	if len(touched) == 0 {
		return tx, nil
	}
	rels := make(map[string]*Relation, len(cur.rels)+len(touched))
	for pred, rel := range cur.rels {
		rels[pred] = rel
	}
	for pred, rel := range touched {
		rel.freeze()
		rels[pred] = rel
	}
	tx.next = &Version{store: b.store, epoch: cur.epoch + 1, rels: rels, facts: facts}
	return tx, nil
}

// Changed reports whether the batch changes the base.
func (tx *BaseTx) Changed() bool { return tx.next != nil }

// Epoch returns the epoch Commit will publish: the current epoch plus one
// for an effective batch, the current epoch for a batch of pure noops.
func (tx *BaseTx) Epoch() int64 {
	if tx.next != nil {
		return tx.next.epoch
	}
	return tx.b.cur.Load().epoch
}

// Commit publishes the batch's version (a noop batch publishes nothing)
// and returns the version now current.
func (tx *BaseTx) Commit() *Version {
	if !tx.open {
		panic("engine: Commit of a finished BaseTx")
	}
	if tx.next != nil {
		tx.b.cur.Store(tx.next)
	}
	v := tx.b.cur.Load()
	tx.open = false
	tx.b.wmu.Unlock()
	return v
}

// Abort discards the batch. It is a no-op after Commit.
func (tx *BaseTx) Abort() {
	if tx.open {
		tx.open = false
		tx.b.wmu.Unlock()
	}
}

// Apply is Begin followed by Commit, for callers with nothing to do in
// between: it returns the version now current and the effective changes.
func (b *Base) Apply(assert, retract []ast.Atom) (v *Version, effAssert, effRetract []ast.Atom, err error) {
	tx, err := b.Begin(assert, retract)
	if err != nil {
		return nil, nil, nil, err
	}
	return tx.Commit(), tx.Assert, tx.Retract, nil
}

// Epoch returns the mutation epoch the version reflects.
func (v *Version) Epoch() int64 { return v.epoch }

// Facts returns the number of live base facts.
func (v *Version) Facts() int { return v.facts }

// Store returns the base vocabulary. Intern through a Child of it, never
// into it, unless the term belongs to a base fact.
func (v *Version) Store() *Store { return v.store }

// Preds returns the predicates that have (or had) base facts, sorted.
func (v *Version) Preds() []string { return v.view().Preds() }

// Relation returns pred's frozen relation, or nil.
func (v *Version) Relation(pred string) *Relation { return v.rels[pred] }

// EvalDB returns a database for one evaluation at this version: every base
// relation is the image's own frozen relation, by pointer, and the store is
// a fresh child of the base vocabulary. Nothing is loaded, interned or
// hashed. The evaluators make their head relations private before deriving
// (prepareRelations) and DB.Insert clones on first write, so the image is
// never written through; a column index a request builds on an aliased
// relation stays with the image and serves every later request.
func (v *Version) EvalDB() *DB {
	db := NewDBWith(v.store.Child())
	for pred, rel := range v.rels {
		db.relations[pred] = rel
	}
	return db
}

// eachLive calls fn for every live fact of db, predicates in sorted order
// and rows in arena order.
func (db *DB) eachLive(fn func(pred string, tuple []Val)) {
	for _, pred := range db.Preds() {
		rel := db.relations[pred]
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			if rel.Round(pos) >= 0 {
				fn(pred, rel.Tuple(pos))
			}
		}
	}
}

// liveAtoms renders db's live facts as ground atoms.
func (db *DB) liveAtoms() []ast.Atom {
	var out []ast.Atom
	db.eachLive(func(pred string, tuple []Val) {
		args := make([]ast.Term, len(tuple))
		for i, val := range tuple {
			args[i] = db.Store.ToAST(val)
		}
		out = append(out, ast.Atom{Pred: pred, Args: args})
	})
	return out
}

// view is the version as a read-only DB over the base store itself (no
// child: nothing is interned through it).
func (v *Version) view() *DB { return &DB{Store: v.store, relations: v.rels} }

// Atoms renders the live base facts as ground atoms — the form the
// atom-based adapters and the differential tests consume.
func (v *Version) Atoms() []ast.Atom { return v.view().liveAtoms() }

// FactStrings renders the live base facts in surface syntax, exactly as
// ast.Atom.String would — the form WAL snapshots store.
func (v *Version) FactStrings() []string {
	out := make([]string, 0, v.facts)
	var buf []byte
	v.view().eachLive(func(pred string, tuple []Val) {
		buf = append(buf[:0], pred...)
		if len(tuple) > 0 {
			buf = v.store.appendTuple(buf, tuple)
		}
		out = append(out, string(buf))
	})
	return out
}
