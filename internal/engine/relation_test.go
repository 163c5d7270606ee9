package engine

import (
	"strings"
	"testing"
)

func TestRelationInsertContains(t *testing.T) {
	r := NewRelation(2)
	if !r.Insert([]Val{1, 2}) {
		t.Error("first insert should be new")
	}
	if r.Insert([]Val{1, 2}) {
		t.Error("duplicate insert should report false")
	}
	if !r.Contains([]Val{1, 2}) || r.Contains([]Val{2, 1}) {
		t.Error("Contains wrong")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRelationInsertCopies(t *testing.T) {
	r := NewRelation(1)
	tup := []Val{7}
	r.Insert(tup)
	tup[0] = 9
	if !r.Contains([]Val{7}) {
		t.Error("Insert did not copy the tuple")
	}
}

func TestRelationArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	NewRelation(2).Insert([]Val{1})
}

func TestRelationProbe(t *testing.T) {
	r := NewRelation(2)
	r.Insert([]Val{1, 10})
	r.Insert([]Val{1, 11})
	r.Insert([]Val{2, 20})
	pos := r.Probe([]int{0}, []Val{1})
	if len(pos) != 2 {
		t.Fatalf("probe col0=1: %d hits", len(pos))
	}
	for _, p := range pos {
		if r.Tuple(p)[0] != 1 {
			t.Errorf("wrong tuple %v", r.Tuple(p))
		}
	}
	if got := r.Probe([]int{1}, []Val{20}); len(got) != 1 || r.Tuple(got[0])[0] != 2 {
		t.Error("probe col1 wrong")
	}
	if got := r.Probe([]int{0, 1}, []Val{1, 11}); len(got) != 1 {
		t.Error("probe both cols wrong")
	}
	if got := r.Probe([]int{0}, []Val{99}); got != nil {
		t.Error("probe miss should be empty")
	}
}

func TestRelationIndexMaintainedAfterInsert(t *testing.T) {
	r := NewRelation(2)
	r.Insert([]Val{1, 10})
	_ = r.Probe([]int{0}, []Val{1}) // builds index
	r.Insert([]Val{1, 12})          // must be added to existing index
	if got := r.Probe([]int{0}, []Val{1}); len(got) != 2 {
		t.Errorf("index not maintained: %d hits", len(got))
	}
}

func TestRelationProbeUnsortedCols(t *testing.T) {
	r := NewRelation(3)
	r.Insert([]Val{1, 2, 3})
	r.Insert([]Val{4, 5, 6})
	// cols out of order: key aligned with cols as given.
	got := r.Probe([]int{2, 0}, []Val{3, 1})
	if len(got) != 1 || r.Tuple(got[0])[1] != 2 {
		t.Errorf("unsorted probe wrong: %v", got)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	a := db.Store.Const("a")
	b := db.Store.Const("b")
	if ok := db.MustInsert("e", a, b); !ok {
		t.Error("insert should be new")
	}
	if db.MustInsert("e", a, b) {
		t.Error("duplicate insert")
	}
	if db.Count("e") != 1 || db.Count("zzz") != 0 {
		t.Error("Count wrong")
	}
	if db.TotalFacts() != 1 {
		t.Error("TotalFacts wrong")
	}
	if _, err := db.Insert("e", a); err == nil {
		t.Error("arity conflict not detected")
	}
	preds := db.Preds()
	if len(preds) != 1 || preds[0] != "e" {
		t.Errorf("Preds = %v", preds)
	}
}

func TestDBClone(t *testing.T) {
	db := NewDB()
	a := db.Store.Const("a")
	db.MustInsert("p", a)
	cp := db.Clone()
	cp.MustInsert("p", db.Store.Const("b"))
	if db.Count("p") != 1 || cp.Count("p") != 2 {
		t.Error("Clone not independent")
	}
	if cp.Store != db.Store {
		t.Error("Clone should share the store")
	}
}

// TestIndexPastBoundPanics: a column at or past IndexableColumns has no bit
// in the index set's column mask, so keying an index on it must panic
// rather than hand back another column's index.
func TestIndexPastBoundPanics(t *testing.T) {
	r := NewRelation(IndexableColumns + 2)
	r.Insert(make([]Val, IndexableColumns+2))
	for _, cols := range [][]int{{IndexableColumns}, {0, IndexableColumns + 1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "cannot key an index") {
					t.Errorf("Probe(%v): recovered %q, want a panic naming the column", cols, msg)
				}
			}()
			r.Probe(cols, make([]Val, len(cols)))
		}()
	}
}
