package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
)

// Relation is a set of tuples of fixed arity, with hash indexes built on
// demand for the column subsets the evaluator probes. Each tuple carries
// the fixpoint round it was inserted in (0 for base facts), which the
// semi-naive evaluator uses to distinguish P_{r-1}, the delta, and P_r
// without copying relations.
//
// Storage is a flat arena: row i occupies arena[i*arity : (i+1)*arity], so
// the whole relation is one contiguous []Val. Membership (present) and
// every column index are open-addressed tables over 64-bit hashes of the
// Val words, resolved against the arena — no tuple is ever varint-encoded
// into a string key, an insert hashes its tuple once, and it allocates
// only when the arena, a table or an index's postings pool doubles. The
// membership table keeps row ids alone (4 bytes a slot, see tupleSet);
// an index keeps each key's hash too, since its probes are the join's
// hottest path. The membership table doubles as the index on every column:
// a probe that binds the whole tuple reads it, so no relation keeps an
// index keyed on all of its columns (a unary relation keeps none). Rows
// are immutable once written, which makes every read-side operation
// (Tuple, Contains, Round, index probes) safe for concurrent readers while
// the relation is frozen between mutations — the property the parallel
// evaluator's in-round probes rely on.
//
// Every evaluator reads rows through a round window [lo, hi]. Semi-naive
// rounds and insertion waves append rows in non-decreasing stamp order, so
// the relation keeps a run table: for each stamp s ≥ 1, the first row
// appended with a stamp ≥ s (one int32 per stamp). A window with lo ≥ 1
// starts its scan at windowStart(lo) — and an index probe binary-searches
// its ascending postings to that row — so a wave reads O(rows in its
// window), not O(relation). An entry is only a lower bound: rows before it
// carry stamps below s, while rows after it are still filtered stamp by
// stamp, so an append of any stamp, in or out of order, keeps the table
// correct. The writes that restamp a row in place or shorten the arena
// (stampDying, and the dense remove) lower the entries to that row;
// resetRounds empties the table, and clone copies it.
//
// Deletion (incremental maintenance) never moves rows: Delete removes the
// tuple from the membership table and stamps rounds[row] = -1, the dead
// sentinel. Index postings keep the dead row id — every round window has
// a lower bound ≥ 0, so dead rows are filtered at the same branch that
// implements semi-naive deltas, and postings buckets never need
// compaction. The arena slot itself stays until the relation is dropped:
// a Materialization replaces the relations a DRed rebuild clears with
// fresh ones rather than deleting their rows, so only individually
// retracted facts leave dead rows behind.
//
// In counted mode (EnableCounts, used by Materialization on the relations
// it owns) each row also carries a derivation count — how many immediate
// derivations currently support the fact. The column is absent (nil)
// outside counted mode, so fresh-DB evaluation pays nothing for it, and a
// frozen base relation a materialization reads by reference gives each of
// its facts an implicit count of 1.
//
// A frozen relation (every relation of a base image Version is one)
// never changes again and may be read by any number of goroutines and
// aliased into any number of DBs. Insert, Delete, EnableCounts and the
// stamping helpers panic on it — a write to shared state is a bug, and the
// evaluators' recover barriers turn it into a typed ErrInternal. The one
// thing that may still be added is a column index: ensureIndex, the single
// gate every index build goes through, builds under ixMu and publishes the
// new index set — a slice, searched by column mask — with one atomic
// store, so an index built for one request serves every later one and
// concurrent readers never see a half-built table.
type Relation struct {
	arity   int
	arena   []Val   // row-major tuple storage; rows never move or change
	rounds  []int32 // insertion round per row; -1 = deleted (dead sentinel)
	present tupleSet

	frozen  bool
	ixMu    sync.Mutex               // serializes index and statistics builds
	indexes atomic.Pointer[[]*index] // the published index set; a stored slice is never modified
	// distinct caches DistinctCounts on a frozen relation.
	distinct atomic.Pointer[[]int]

	// stampedFrom is the reset low-water mark: every row below it carries
	// round 0 or the dead sentinel. Rows are appended in stamp order, so
	// resetRounds only has to visit [stampedFrom, Len).
	stampedFrom int32
	// starts is the run table (see the type comment): no row before
	// starts[s-1] carries a stamp ≥ s.
	starts []int32

	dead    int     // rows with rounds[row] < 0
	counted bool    // counts column maintained
	counts  []int32 // per-row derivation count (counted mode only)
}

// tupleSet is the open-addressed membership table: hash of the full tuple
// -> row id, with linear probing. A slot holds row+1, so a freshly
// allocated table is all empty (0) with no pass to fill it, and tombSlot
// after a removal; lookups probe past tombstones but stop at empties, so
// removal never breaks a probe chain. No hash is stored beside the row:
// a slot costs 4 bytes, every live slot on a probe path is confirmed
// against the arena (one Val compare for a unary relation), and growth
// rehashes each live row from the arena. Growth drops tombstones.
type tupleSet struct {
	slots []int32
	n     int // live entries
	used  int // live entries + tombstones (growth trigger)
}

const tombSlot = -1

func (s *tupleSet) lookup(r *Relation, h uint64, tuple []Val) (int32, bool) {
	if len(s.slots) == 0 {
		return -1, false
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			return -1, false
		}
		if slot > 0 && r.rowEquals(slot-1, tuple) {
			return slot - 1, true
		}
	}
}

// add places a row known to be absent, growing at 3/4 load. The first
// free slot on the probe path is reused — a tombstone if one is passed,
// the terminating empty otherwise.
func (s *tupleSet) add(r *Relation, h uint64, row int32) {
	if (s.used+1)*4 > len(s.slots)*3 {
		s.grow(r)
	}
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] > 0 {
		i = (i + 1) & mask
	}
	if s.slots[i] == 0 {
		s.used++
	}
	s.slots[i] = row + 1
	s.n++
}

// remove tombstones the slot holding tuple (found by hash + arena
// compare). It reports whether the tuple was present.
func (s *tupleSet) remove(r *Relation, h uint64, tuple []Val) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.slots[i]
		if slot == 0 {
			return false
		}
		if slot > 0 && r.rowEquals(slot-1, tuple) {
			s.slots[i] = tombSlot
			s.n--
			return true
		}
	}
}

// repoint renames a present row: the slot holding from (a row whose tuple
// hashes to h) now names to.
func (s *tupleSet) repoint(h uint64, from, to int32) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != from+1 {
		i = (i + 1) & mask
	}
	s.slots[i] = to + 1
}

// grow doubles the table, placing each live row by the hash of its arena
// tuple.
func (s *tupleSet) grow(r *Relation) {
	size := max(2*len(s.slots), 16)
	old := s.slots
	s.slots = make([]int32, size)
	mask := uint64(size - 1)
	for _, slot := range old {
		if slot <= 0 {
			continue
		}
		i := hashVals(r.Tuple(slot-1)) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = slot
	}
	s.used = s.n
}

// index maps the projection of a tuple onto cols to the rows sharing that
// key: an open-addressed table of key hashes whose slots name buckets, one
// per distinct key, and one pool of row ids the buckets' postings are cut
// from, so an index holds no pointer the garbage collector must trace and
// a key costs no allocation of its own. Collisions compare the probe key
// against the bucket's first row in the arena.
//
// A bucket's postings are pool[off : off+n], with room up to off+cap. A
// full bucket moves to the end of the pool with twice the room (or, when
// it is the pool's last, grows in place); its old entries are copied, never
// overwritten, and the pool only ever appends. So a postings slice handed
// out by probe keeps its contents while rows keep arriving — the round-0
// cascade scans a bucket of the relation it is inserting into — at the
// price of leaving the moved-from entries behind, at most as many as the
// bucket holds.
type index struct {
	mask    uint32 // colMask(cols)
	cols    []int  // sorted ascending
	hashes  []uint64
	slots   []int32 // bucket ids; -1 = empty
	buckets []bucket
	pool    []int32
}

// bucket locates one key's postings in its index's pool.
type bucket struct{ off, n, cap int32 }

// tableSize is the slot count an index grows to for keys distinct keys: the
// smallest power of two from 16 that keeps the load at or below 3/4.
func tableSize(keys int) int {
	size := 16
	for keys*4 > size*3 {
		size *= 2
	}
	return size
}

// newIndex builds the index on cols over every arena row of r in two
// passes: the first hashes each row into the slot table, sized for the row
// count up front, and counts each key's rows; the second cuts every
// bucket from one pool at its exact size and fills it in row order. The
// table then shrinks to what adding the rows one by one would have grown
// it to, so a build costs a handful of allocations and retains no more
// than an incremental one. Dead rows are indexed like live ones, as
// addRow would have: round windows filter them.
func newIndex(r *Relation, cols []int, mask uint32) *index {
	ix := &index{mask: mask, cols: cols}
	n := r.Len()
	ix.resize(tableSize(n))
	bucketOf := make([]int32, n)
	tableMask := uint64(len(ix.slots) - 1)
	for row := int32(0); row < int32(n); row++ {
		h := r.hashRowCols(row, cols)
		for i := h & tableMask; ; i = (i + 1) & tableMask {
			b := ix.slots[i]
			if b < 0 {
				// Until the second pass, off holds the bucket's first row.
				b = int32(len(ix.buckets))
				ix.hashes[i], ix.slots[i] = h, b
				ix.buckets = append(ix.buckets, bucket{off: row})
			} else if ix.hashes[i] != h || !r.rowsEqualOnCols(ix.buckets[b].off, row, cols) {
				continue
			}
			ix.buckets[b].n++
			bucketOf[row] = b
			break
		}
	}
	off := int32(0)
	for i := range ix.buckets {
		bk := &ix.buckets[i]
		bk.off, bk.cap, bk.n = off, bk.n, 0
		off += bk.cap
	}
	ix.pool = make([]int32, n)
	for row, b := range bucketOf {
		bk := &ix.buckets[b]
		ix.pool[bk.off+bk.n] = int32(row)
		bk.n++
	}
	if size := tableSize(len(ix.buckets)); size < len(ix.slots) {
		ix.resize(size)
	}
	return ix
}

func (ix *index) addRow(r *Relation, row int32) {
	h := r.hashRowCols(row, ix.cols)
	if (len(ix.buckets)+1)*4 > len(ix.slots)*3 {
		ix.resize(tableSize(len(ix.buckets) + 1))
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := ix.slots[i]
		if b < 0 {
			ix.hashes[i] = h
			ix.slots[i] = int32(len(ix.buckets))
			ix.buckets = append(ix.buckets, bucket{off: int32(len(ix.pool)), n: 1, cap: 1})
			ix.pool = append(ix.pool, row)
			return
		}
		if ix.hashes[i] == h && r.rowsEqualOnCols(ix.pool[ix.buckets[b].off], row, ix.cols) {
			ix.push(b, row)
			return
		}
	}
}

// push appends row to bucket b's postings (see the type comment for why a
// full bucket is copied rather than moved).
func (ix *index) push(b, row int32) {
	bk := &ix.buckets[b]
	if bk.n == bk.cap {
		if end := int32(len(ix.pool)); bk.off+bk.cap != end {
			ix.pool = append(ix.pool, ix.pool[bk.off:bk.off+bk.n]...)
			bk.off = end
		}
		ix.pool = slices.Grow(ix.pool, int(bk.cap))
		ix.pool = ix.pool[:len(ix.pool)+int(bk.cap)]
		bk.cap *= 2
	}
	ix.pool[bk.off+bk.n] = row
	bk.n++
}

// resize rehashes the slot table into size slots.
func (ix *index) resize(size int) {
	oldHashes, oldSlots := ix.hashes, ix.slots
	ix.hashes = make([]uint64, size)
	ix.slots = make([]int32, size)
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	mask := uint64(size - 1)
	for j, b := range oldSlots {
		if b < 0 {
			continue
		}
		i := oldHashes[j] & mask
		for ix.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		ix.hashes[i], ix.slots[i] = oldHashes[j], b
	}
}

// probe returns the postings of the key (aligned with ix.cols), ascending,
// or nil. The slice is capped, so nothing a caller appends reaches the
// pool. It is a pure read: safe for concurrent use while the relation is
// frozen.
func (ix *index) probe(r *Relation, key []Val) []int32 {
	if len(ix.buckets) == 0 {
		return nil
	}
	h := hashVals(key)
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := ix.slots[i]
		if b < 0 {
			return nil
		}
		if bk := ix.buckets[b]; ix.hashes[i] == h && r.rowMatchesKey(ix.pool[bk.off], ix.cols, key) {
			return ix.pool[bk.off : bk.off+bk.n : bk.off+bk.n]
		}
	}
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity}
}

// freeze makes the relation immutable (see the type comment).
func (r *Relation) freeze() { r.frozen = true }

// checkWritable guards every row-level write.
func (r *Relation) checkWritable() {
	if r.frozen {
		panic("engine: write to a frozen relation")
	}
}

// indexList returns the published indexes; the slice must not be modified.
func (r *Relation) indexList() []*index {
	if p := r.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// lookupIndex returns the published index keyed on the columns of mask, or
// nil.
func (r *Relation) lookupIndex(mask uint32) *index {
	for _, ix := range r.indexList() {
		if ix.mask == mask {
			return ix
		}
	}
	return nil
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of arena rows, including dead (deleted) ones.
// Scans over [0, Len) must skip positions where Round(pos) < 0; the
// evaluator's round windows do this implicitly. Use Live for the number
// of facts.
func (r *Relation) Len() int { return len(r.rounds) }

// Live returns the number of live tuples (arena rows minus deletions).
func (r *Relation) Live() int { return len(r.rounds) - r.dead }

// Tuple returns the tuple at position pos: a view into the arena, valid
// forever (rows are immutable) but not to be modified by the caller.
func (r *Relation) Tuple(pos int32) []Val {
	base := int(pos) * r.arity
	return r.arena[base : base+r.arity : base+r.arity]
}

// rowEquals reports whether the row equals tuple.
func (r *Relation) rowEquals(row int32, tuple []Val) bool {
	base := int(row) * r.arity
	for i, v := range tuple {
		if r.arena[base+i] != v {
			return false
		}
	}
	return true
}

// rowMatchesKey reports whether the row's projection on cols equals key.
func (r *Relation) rowMatchesKey(row int32, cols []int, key []Val) bool {
	base := int(row) * r.arity
	for i, c := range cols {
		if r.arena[base+c] != key[i] {
			return false
		}
	}
	return true
}

// rowsEqualOnCols reports whether two rows agree on cols.
func (r *Relation) rowsEqualOnCols(a, b int32, cols []int) bool {
	ba, bb := int(a)*r.arity, int(b)*r.arity
	for _, c := range cols {
		if r.arena[ba+c] != r.arena[bb+c] {
			return false
		}
	}
	return true
}

// Insert adds tuple to the relation at round 0; it reports whether the
// tuple was new. The tuple is copied into the arena.
func (r *Relation) Insert(tuple []Val) bool { return r.InsertRound(tuple, 0) }

// InsertRound adds tuple with an explicit insertion round.
func (r *Relation) InsertRound(tuple []Val, round int32) bool {
	r.checkWritable()
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("engine: inserting tuple of len %d into relation of arity %d", len(tuple), r.arity))
	}
	h := hashVals(tuple)
	if _, ok := r.present.lookup(r, h, tuple); ok {
		return false
	}
	r.insertAbsent(h, tuple, round)
	return true
}

// insertCounted records one derivation of tuple in a counted relation,
// hashing it once: a present tuple gains a support, an absent one is
// inserted at round with count 1. It reports whether the tuple was new.
func (r *Relation) insertCounted(tuple []Val, round int32) bool {
	r.checkWritable()
	h := hashVals(tuple)
	if row, ok := r.present.lookup(r, h, tuple); ok {
		r.addCount(row, 1)
		return false
	}
	r.insertAbsent(h, tuple, round)
	return true
}

// insertAbsent appends tuple, which hashes to h and is not present, at
// round and adds it to the membership table and every index.
func (r *Relation) insertAbsent(h uint64, tuple []Val, round int32) {
	if len(r.arena)+len(tuple) > cap(r.arena) {
		// The arena is about to reallocate — the moment storage failures
		// surface. The injection point sits before any mutation, so a fired
		// fault leaves the relation consistent.
		faultinject.Hit(faultinject.ArenaGrow)
	}
	row := int32(len(r.rounds))
	if round <= 0 && r.stampedFrom == row {
		r.stampedFrom = row + 1
	}
	r.coverStamps(round, row)
	r.arena = append(r.arena, tuple...)
	r.rounds = append(r.rounds, round)
	if r.counted {
		r.counts = append(r.counts, 1)
	}
	r.present.add(r, h, row)
	for _, ix := range r.indexList() {
		ix.addRow(r, row)
	}
}

// EnableCounts switches the relation into counted mode: every row carries
// a derivation count (existing rows start at 1). Used by Materialization;
// idempotent.
func (r *Relation) EnableCounts() {
	if r.counted {
		return
	}
	r.checkWritable()
	r.counted = true
	r.counts = make([]int32, len(r.rounds))
	for i := range r.counts {
		r.counts[i] = 1
	}
}

// Counted reports whether the relation maintains derivation counts.
func (r *Relation) Counted() bool { return r.counted }

// DerivCount returns the derivation count of the row (counted mode only).
func (r *Relation) DerivCount(pos int32) int32 { return r.counts[pos] }

// addCount adjusts the row's derivation count and returns the new value.
func (r *Relation) addCount(pos, delta int32) int32 {
	r.counts[pos] += delta
	return r.counts[pos]
}

// findRow returns the arena row holding tuple, if present (dead rows are
// not present — Delete removes them from the membership table).
func (r *Relation) findRow(tuple []Val) (int32, bool) {
	return r.present.lookup(r, hashVals(tuple), tuple)
}

// deleteRow kills a live arena row: removed from the membership table,
// stamped with the dead sentinel, count zeroed. Index postings keep the
// row id — round windows (lower bound ≥ 0) filter it on every probe.
func (r *Relation) deleteRow(row int32) {
	r.checkWritable()
	tuple := r.Tuple(row)
	if !r.present.remove(r, hashVals(tuple), tuple) {
		return
	}
	r.rounds[row] = -1
	if r.counted {
		r.counts[row] = 0
	}
	r.dead++
}

// Delete removes tuple from the relation, reporting whether it was
// present. The arena slot is leaked (rows never move); see the type
// comment for how dead rows stay invisible to the evaluators.
func (r *Relation) Delete(tuple []Val) bool {
	row, ok := r.findRow(tuple)
	if !ok {
		return false
	}
	r.deleteRow(row)
	return true
}

// remove deletes tuple by moving the last row into its place, so the arena
// stays dense and no dead row is left for readers to skip — the invariant
// of base image relations, which executors that never met a deletion
// (the streaming scans) read without a liveness check. Row ids
// change, so it is only for a relation with no column index and no counts
// yet: an image relation's clone, between clone and freeze.
func (r *Relation) remove(tuple []Val) bool {
	r.checkWritable()
	if r.counted || len(r.indexList()) > 0 || r.dead > 0 {
		panic("engine: dense remove on an indexed, counted or tombstoned relation")
	}
	h := hashVals(tuple)
	row, ok := r.present.lookup(r, h, tuple)
	if !ok {
		return false
	}
	r.present.remove(r, h, tuple)
	last := int32(len(r.rounds) - 1)
	if row != last {
		moved := r.Tuple(last)
		r.present.repoint(hashVals(moved), last, row)
		copy(r.arena[int(row)*r.arity:], moved)
		r.rounds[row] = r.rounds[last]
		if r.rounds[row] > 0 {
			r.stampedFrom = min(r.stampedFrom, row)
			r.restamped(row, r.rounds[row])
		}
	}
	r.arena = r.arena[:int(last)*r.arity]
	r.rounds = r.rounds[:last]
	r.stampedFrom = min(r.stampedFrom, last)
	r.restamped(last, 0)
	return true
}

// Round returns the insertion round of the tuple at pos.
func (r *Relation) Round(pos int32) int32 { return r.rounds[pos] }

// windowStart returns the row a scan of a round window with lower bound lo
// may start at: no row before it carries a stamp ≥ lo. For lo ≤ 0 that is
// row 0; when the table stops short of lo, no row carries lo or more and
// the scan starts at Len, seeing only rows appended after the call.
func (r *Relation) windowStart(lo int32) int32 {
	if lo <= 0 {
		return 0
	}
	if int(lo) > len(r.starts) {
		return int32(len(r.rounds))
	}
	return r.starts[lo-1]
}

// windowSpan returns how many rows a scan of a round window with lower
// bound lo reads: the rows from windowStart(lo) on.
func (r *Relation) windowSpan(lo int32) int {
	return len(r.rounds) - int(r.windowStart(lo))
}

// fromWindow drops the leading rows of an ascending postings list that lie
// before windowStart(lo), by binary search.
func (r *Relation) fromWindow(positions []int32, lo int32) []int32 {
	i, _ := slices.BinarySearch(positions, r.windowStart(lo))
	return positions[i:]
}

// coverStamps extends the run table through stamp: the stamps it adds are
// first reached at row.
func (r *Relation) coverStamps(stamp, row int32) {
	for int32(len(r.starts)) < stamp {
		r.starts = append(r.starts, row)
	}
}

// restamped keeps the run table correct when row took stamp in place or —
// with stamp 0 — when the arena was cut back to end before row: every
// entry is lowered to row, so no window skips the row, or the next one
// appended there.
func (r *Relation) restamped(row, stamp int32) {
	r.coverStamps(stamp, row)
	for i := range r.starts {
		r.starts[i] = min(r.starts[i], row)
	}
}

// stampDying stamps a live row as a deletion wave's delta. The wave kills
// the row (deleteRow) before it ends, so the stamp never outlives the wave
// and the reset low-water mark stays where it is.
func (r *Relation) stampDying(row int32) {
	r.checkWritable()
	r.rounds[row] = 1
	r.restamped(row, 1)
}

// resetRounds zeroes the stamps of the rows at and above the low-water
// mark (dead rows keep their sentinel — zeroing it would resurrect them)
// and returns how many rows it visited. A frozen relation is never stamped,
// so there is nothing to visit.
func (r *Relation) resetRounds() int {
	if r.frozen {
		return 0
	}
	from := int(r.stampedFrom)
	for i := from; i < len(r.rounds); i++ {
		if r.rounds[i] > 0 {
			r.rounds[i] = 0
		}
	}
	r.stampedFrom = int32(len(r.rounds))
	r.starts = r.starts[:0]
	return len(r.rounds) - from
}

// clone returns a private, writable copy of the rows of a dense, unstamped
// relation — an image relation, or a materialization's own copy of one —
// with room for extra more: the arena, the stamps with their low-water mark
// and run table, and the membership table are copied wholesale, nothing is
// re-interned or re-hashed, and column indexes and counted-mode columns are
// left behind.
func (r *Relation) clone(extra int) *Relation {
	nr := NewRelation(r.arity)
	nr.arena = append(make([]Val, 0, len(r.arena)+extra*r.arity), r.arena...)
	nr.rounds = append(make([]int32, 0, len(r.rounds)+extra), r.rounds...)
	nr.present = tupleSet{slots: slices.Clone(r.present.slots), n: r.present.n, used: r.present.used}
	nr.stampedFrom = r.stampedFrom
	nr.starts = append([]int32(nil), r.starts...)
	return nr
}

// DistinctCounts returns, per column, the number of distinct values among
// the live rows. A frozen relation counts once and remembers: its rows
// never change, and an image version shares untouched relations with its
// predecessor by pointer, so statistics survive every mutation batch that
// does not touch the relation.
func (r *Relation) DistinctCounts() []int {
	if !r.frozen {
		return r.countDistinct()
	}
	if d := r.distinct.Load(); d != nil {
		return *d
	}
	r.ixMu.Lock()
	defer r.ixMu.Unlock()
	if d := r.distinct.Load(); d != nil {
		return *d
	}
	d := r.countDistinct()
	r.distinct.Store(&d)
	return d
}

// countDistinct counts each column's distinct values among the live rows
// in one open-addressed set of Vals, sized for Live() at load ≤ 1/2 and
// cleared between columns. A slot holds uint32(v)+1, so 0 is empty and the
// set holds no pointers. Vals are hashed, not used as bit positions: a
// child store's Vals start at 1<<30.
func (r *Relation) countDistinct() []int {
	out := make([]int, r.arity)
	live := r.Live()
	if live == 0 {
		return out
	}
	bits := 3
	for 1<<bits < 2*live {
		bits++
	}
	set := make([]uint32, 1<<bits)
	mask := uint32(len(set) - 1)
	for c := 0; c < r.arity; c++ {
		clear(set)
		n := 0
		for row, i := 0, c; row < len(r.rounds); row, i = row+1, i+r.arity {
			if r.rounds[row] < 0 {
				continue
			}
			key := uint32(r.arena[i]) + 1
			j := uint32((uint64(key) * 0x9e3779b97f4a7c15) >> (64 - bits))
			for set[j] != 0 && set[j] != key {
				j = (j + 1) & mask
			}
			if set[j] == 0 {
				set[j] = key
				n++
			}
		}
		out[c] = n
	}
	return out
}

// Contains reports whether tuple is in the relation. It is a pure read:
// safe for concurrent use while the relation is frozen.
func (r *Relation) Contains(tuple []Val) bool {
	_, ok := r.present.lookup(r, hashVals(tuple), tuple)
	return ok
}

// IndexableColumns bounds the columns a column index may be keyed on:
// index sets are keyed by a uint32 column mask, so a column from this one
// on has no bit of its own. The rule compiler matches such columns
// residually, and keying an index on one panics.
const IndexableColumns = 32

func colMask(cols []int) uint32 {
	var m uint32
	for _, c := range cols {
		if c < 0 || c >= IndexableColumns {
			panic(fmt.Sprintf("engine: column %d cannot key an index (columns 0..%d can)", c, IndexableColumns-1))
		}
		m |= 1 << uint(c)
	}
	return m
}

// ensureIndex builds (or returns) the index on the given columns. It is the
// one gate for index builds — lazy Probe, the evaluators' up-front index
// plans and first probes, the parallel strata — and the only write a
// frozen relation accepts: the build runs under ixMu and the extended
// index set is published with one atomic store, so concurrent first-time
// callers build the index once and readers of the old set are never
// disturbed.
func (r *Relation) ensureIndex(cols []int) *index {
	mask := colMask(cols)
	if ix := r.lookupIndex(mask); ix != nil {
		return ix
	}
	r.ixMu.Lock()
	defer r.ixMu.Unlock()
	if ix := r.lookupIndex(mask); ix != nil {
		return ix
	}
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	ix := newIndex(r, sorted, mask)
	next := append(slices.Clip(r.indexList()), ix)
	r.indexes.Store(&next)
	return ix
}

// Probe returns the positions of tuples whose projection on cols equals
// key (a slice of Vals aligned with cols). An index on cols is built on
// first use; callers should not pass empty cols. On a frozen relation it
// is safe for concurrent use — ensureIndex publishes the index atomically —
// which tabled top-down evaluation over a base image relies on; otherwise,
// like the rest of the mutating surface, it is single-threaded, and the
// parallel evaluator's workers probe the indexes planned before each round
// (plannedIndex).
func (r *Relation) Probe(cols []int, key []Val) []int32 {
	faultinject.Hit(faultinject.IndexProbe)
	ix := r.ensureIndex(cols)
	if len(cols) != len(ix.cols) {
		panic("engine: probe column count mismatch")
	}
	if !sort.IntsAreSorted(cols) {
		// Rare direct-API path: align key to the index's sorted column
		// order (the compiler always emits bound columns already sorted).
		aligned := make([]Val, len(key))
		perm := append([]int(nil), cols...)
		sort.Ints(perm)
		for i, c := range perm {
			for j, oc := range cols {
				if oc == c {
					aligned[i] = key[j]
					break
				}
			}
		}
		key = aligned
	}
	return ix.probe(r, key)
}

// HasIndex reports whether an index on cols has already been built.
func (r *Relation) HasIndex(cols []int) bool {
	return r.lookupIndex(colMask(cols)) != nil
}

// plannedIndex returns the prebuilt index on cols without mutating the
// relation, so concurrent workers can share it during a round. cols must be
// sorted ascending (the compiler emits bound columns in column order) and
// the index must have been built up front from the rule's index plan;
// reaching an unplanned index is a scheduling bug and panics.
func (r *Relation) plannedIndex(cols []int) *index {
	ix := r.lookupIndex(colMask(cols))
	if ix == nil {
		panic(fmt.Sprintf("engine: frozen probe of unplanned index %v", cols))
	}
	return ix
}

// probeFull returns the row holding key, a whole tuple, as a one-element
// slice of into, or nil: the membership table answers a probe that binds
// every column, so such a probe needs no index. Like an index probe it is
// a pure read.
func (r *Relation) probeFull(key []Val, into []int32) []int32 {
	row, ok := r.present.lookup(r, hashVals(key), key)
	if !ok {
		return nil
	}
	into[0] = row
	return into[:1:1]
}

// StorageFootprint reports the relation's memory shape: arena bytes
// (tuples, round stamps, counts and the run table), index bytes (4-byte
// membership slots, the indexes' hash slots and postings), and the load
// factors of the membership table and the indexes.
func (r *Relation) StorageFootprint() (arenaBytes, indexBytes int64, presentLoad, indexLoad float64, nIndexes int) {
	const valSize, roundSize, hashSize, slotSize, bucketSize = 4, 4, 8, 4, 12
	arenaBytes = int64(cap(r.arena))*valSize + int64(cap(r.rounds))*roundSize
	arenaBytes += int64(cap(r.counts)+cap(r.starts)) * roundSize
	indexBytes = int64(cap(r.present.slots)) * slotSize
	if len(r.present.slots) > 0 {
		presentLoad = float64(r.present.n) / float64(len(r.present.slots))
	}
	loadSum := 0.0
	for _, ix := range r.indexList() {
		indexBytes += int64(cap(ix.hashes))*hashSize + int64(cap(ix.slots))*slotSize
		indexBytes += int64(cap(ix.buckets))*bucketSize + int64(cap(ix.pool))*slotSize
		if len(ix.slots) > 0 {
			loadSum += float64(len(ix.buckets)) / float64(len(ix.slots))
		}
		nIndexes++
	}
	if nIndexes > 0 {
		indexLoad = loadSum / float64(nIndexes)
	}
	return arenaBytes, indexBytes, presentLoad, indexLoad, nIndexes
}

// DB maps predicate names to relations. Predicates are identified by name
// alone; using one name at two arities is an error surfaced at insert.
type DB struct {
	Store     *Store
	relations map[string]*Relation
}

// NewDB returns an empty database over a fresh store.
func NewDB() *DB { return NewDBWith(NewStore()) }

// NewDBWith returns an empty database over the given store.
func NewDBWith(store *Store) *DB {
	return &DB{Store: store, relations: make(map[string]*Relation)}
}

// Rel returns the relation for pred, creating it with the given arity on
// first use. It returns an error on arity conflicts.
func (db *DB) Rel(pred string, arity int) (*Relation, error) {
	if r, ok := db.relations[pred]; ok {
		if r.arity != arity {
			return nil, fmt.Errorf("predicate %s used with arity %d and %d", pred, r.arity, arity)
		}
		return r, nil
	}
	r := NewRelation(arity)
	db.relations[pred] = r
	return r, nil
}

// Lookup returns the relation for pred, or nil if none exists.
func (db *DB) Lookup(pred string) *Relation { return db.relations[pred] }

// Preds returns the predicate names present, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.relations))
	for p := range db.relations {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// own returns pred's relation for writing. A frozen relation — one aliased
// from a base image — is first replaced, in this DB only, by a private
// clone of its rows: the image is shared and is never written through.
func (db *DB) own(pred string, arity int) (*Relation, error) {
	r, err := db.Rel(pred, arity)
	if err != nil || !r.frozen {
		return r, err
	}
	r = r.clone(0)
	db.relations[pred] = r
	return r, nil
}

// prepareRelations readies db for an evaluation of cp and returns the
// relation of each of its predicates, by id: every head and body relation
// exists with a checked arity, and every head relation is private to db
// (own), since heads are the only relations an evaluator inserts into.
// Every evaluator starts here, which is what lets a DB alias a base image's
// frozen relations without copying them. Whoever later replaces one of
// these relations in db (own, a rebuild) must replace it in the table too.
func prepareRelations(db *DB, cp *CompiledProgram) ([]*Relation, error) {
	rels := make([]*Relation, len(cp.preds))
	for id, p := range cp.preds {
		var err error
		if p.idb {
			rels[id], err = db.own(p.name, p.arity)
		} else {
			rels[id], err = db.Rel(p.name, p.arity)
		}
		if err != nil {
			return nil, err
		}
	}
	return rels, nil
}

// Insert adds a fact. It reports whether the fact was new.
func (db *DB) Insert(pred string, tuple ...Val) (bool, error) {
	r, err := db.own(pred, len(tuple))
	if err != nil {
		return false, err
	}
	return r.Insert(tuple), nil
}

// MustInsert is Insert, panicking on arity conflict; for tests and loaders.
func (db *DB) MustInsert(pred string, tuple ...Val) bool {
	ok, err := db.Insert(pred, tuple...)
	if err != nil {
		panic(err)
	}
	return ok
}

// Count returns the number of live facts for pred (0 if absent).
func (db *DB) Count(pred string) int {
	if r := db.relations[pred]; r != nil {
		return r.Live()
	}
	return 0
}

// TotalFacts returns the total number of live facts across all relations.
func (db *DB) TotalFacts() int {
	n := 0
	for _, r := range db.relations {
		n += r.Live()
	}
	return n
}

// StorageStats aggregates the StorageFootprint of the relations this DB
// owns into one record: total arena and index bytes, plus load factors
// averaged over non-empty tables. Frozen relations aliased from a base
// image are not counted: they belong to the image and are shared by every
// request that reads it, so an evaluation's storage record and memory
// budget cover what the evaluation itself allocated.
func (db *DB) StorageStats() obsv.StorageStats {
	var st obsv.StorageStats
	presentSum, presentN := 0.0, 0
	indexSum, indexN := 0.0, 0
	for _, r := range db.relations {
		if r.frozen {
			continue
		}
		arenaBytes, indexBytes, presentLoad, indexLoad, nIndexes := r.StorageFootprint()
		st.Relations++
		st.Facts += r.Live()
		st.ArenaBytes += arenaBytes
		st.IndexBytes += indexBytes
		st.Indexes += nIndexes
		if r.Len() > 0 {
			presentSum += presentLoad
			presentN++
		}
		if nIndexes > 0 {
			indexSum += indexLoad
			indexN++
		}
	}
	if presentN > 0 {
		st.PresentLoad = presentSum / float64(presentN)
	}
	if indexN > 0 {
		st.IndexLoad = indexSum / float64(indexN)
	}
	return st
}

// resetRounds zeroes every live row's insertion-round stamp, turning all
// current facts into base state for a fresh fixpoint, and returns the
// number of rows it had to visit (see Relation.resetRounds: only the rows
// stamped since the last reset). Eval uses it before the sequential retry
// after a parallel worker panic: the stamps left by the aborted parallel
// rounds would otherwise fall outside the retry's semi-naive delta windows
// and break completeness. Materialization.Apply uses it between batches.
func (db *DB) resetRounds() int {
	n := 0
	for _, r := range db.relations {
		n += r.resetRounds()
	}
	return n
}

// Clone returns a DB sharing the store but with independent relations
// holding the live tuples (dead arena rows are not carried over).
func (db *DB) Clone() *DB {
	out := NewDBWith(db.Store)
	for pred, r := range db.relations {
		nr := NewRelation(r.arity)
		for pos := int32(0); pos < int32(r.Len()); pos++ {
			if r.rounds[pos] < 0 {
				continue
			}
			nr.Insert(r.Tuple(pos))
		}
		out.relations[pred] = nr
	}
	return out
}
