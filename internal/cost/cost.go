// Package cost implements the statistics and cost-model half of the
// adaptive optimizer (ROADMAP item 4): a Snapshot captures the EDB's shape
// — per-relation cardinalities, per-column distinct counts, arena and index
// load factors — and EstimateProgram prices a candidate program against it
// with textbook join/probe/delta estimates. The planner in
// internal/pipeline enumerates rewrite candidates (magic, supplementary
// magic, factoring, §5 clean-up, counting) × body-literal orderings and
// ranks them by these estimates; see docs/PLANNER.md.
package cost

import (
	"sort"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/obsv"
)

// ColumnStats describes one argument position of a relation.
type ColumnStats struct {
	// Distinct counts distinct values in the column.
	Distinct int `json:"distinct"`
}

// RelationStats describes one base relation at snapshot time.
type RelationStats struct {
	// Pred is the predicate name; Rows its live cardinality.
	Pred string `json:"pred"`
	Rows int    `json:"rows"`
	// Columns holds per-column distinct counts, one entry per argument
	// position.
	Columns []ColumnStats `json:"columns,omitempty"`
	// ArenaBytes/IndexBytes/PresentLoad/IndexLoad/Indexes mirror
	// engine.Relation.StorageFootprint.
	ArenaBytes  int64   `json:"arena_bytes,omitempty"`
	IndexBytes  int64   `json:"index_bytes,omitempty"`
	PresentLoad float64 `json:"present_load,omitempty"`
	IndexLoad   float64 `json:"index_load,omitempty"`
	Indexes     int     `json:"indexes,omitempty"`
}

// Snapshot is a point-in-time statistical summary of an EDB, the input the
// cost model prices candidate plans against.
type Snapshot struct {
	// Epoch is the mutation epoch the snapshot reflects (0 when the source
	// has no epoch notion).
	Epoch int64 `json:"epoch"`
	// Mutations is the cumulative count of effective assert/retract rows at
	// snapshot time; the shadow re-coster uses the delta since the last
	// decision as its change-ratio trigger.
	Mutations int64 `json:"mutations,omitempty"`
	// TotalRows sums the live rows of every relation.
	TotalRows int `json:"total_rows"`
	// Relations maps predicate name to its statistics.
	Relations map[string]RelationStats `json:"relations"`
	// Observed carries measured row counts from earlier evaluations (rule
	// pass statistics folded in by ObserveRuleStats). The model uses an
	// observed count as the floor for that predicate's estimate, so
	// re-costing after real runs is calibrated by what actually happened.
	Observed map[string]float64 `json:"observed,omitempty"`
}

// Rel returns the statistics for pred, if present.
func (s *Snapshot) Rel(pred string) (RelationStats, bool) {
	r, ok := s.Relations[pred]
	return r, ok
}

// Preds lists the snapshotted predicates sorted by name.
func (s *Snapshot) Preds() []string {
	out := make([]string, 0, len(s.Relations))
	for p := range s.Relations {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// SnapshotFromAtoms is SnapshotFromVersion over a private image of a
// ground-atom EDB. The atoms must be ground with one arity per predicate —
// what every caller holds; anything else yields an empty snapshot.
func SnapshotFromAtoms(facts []ast.Atom, epoch int64) *Snapshot {
	b, err := engine.NewBase(facts, epoch)
	if err != nil {
		return &Snapshot{Epoch: epoch, Relations: map[string]RelationStats{}}
	}
	return SnapshotFromVersion(b.Current())
}

// SnapshotFromVersion summarizes a base image. Per-column distinct counts
// come from the frozen relations' own caches (engine.Relation.
// DistinctCounts), and a version shares every relation a batch did not
// touch with its predecessor, so after a mutation only the touched
// relations are recounted.
func SnapshotFromVersion(v *engine.Version) *Snapshot {
	snap := &Snapshot{Epoch: v.Epoch(), Relations: map[string]RelationStats{}}
	for _, pred := range v.Preds() {
		snap.add(pred, v.Relation(pred))
	}
	return snap
}

// SnapshotFromDB summarizes every relation of an arena-backed database:
// live cardinalities, per-column distinct counts over the interned values,
// and the relation's storage footprint (arena/index bytes and hash-table
// load factors). Dead rows (retracted under counting maintenance) are
// skipped.
func SnapshotFromDB(db *engine.DB, epoch int64) *Snapshot {
	snap := &Snapshot{Epoch: epoch, Relations: map[string]RelationStats{}}
	for _, pred := range db.Preds() {
		if rel := db.Lookup(pred); rel != nil {
			snap.add(pred, rel)
		}
	}
	return snap
}

// add records one relation's statistics. A relation with no live rows is
// left out, as if its predicate had never been asserted.
func (s *Snapshot) add(pred string, rel *engine.Relation) {
	rs := RelationStats{Pred: pred, Rows: rel.Live()}
	if rs.Rows == 0 {
		return
	}
	rs.ArenaBytes, rs.IndexBytes, rs.PresentLoad, rs.IndexLoad, rs.Indexes = rel.StorageFootprint()
	distinct := rel.DistinctCounts()
	rs.Columns = make([]ColumnStats, len(distinct))
	for i, d := range distinct {
		rs.Columns[i] = ColumnStats{Distinct: d}
	}
	s.Relations[pred] = rs
	s.TotalRows += rs.Rows
}

// WithObserved returns a shallow copy of the snapshot with observed row
// counts overlaid (existing entries are kept unless the new map has a
// larger value). The receiver is not modified.
func (s *Snapshot) WithObserved(observed map[string]float64) *Snapshot {
	if len(observed) == 0 {
		return s
	}
	out := *s
	out.Observed = make(map[string]float64, len(s.Observed)+len(observed))
	for p, v := range s.Observed {
		out.Observed[p] = v
	}
	for p, v := range observed {
		if v > out.Observed[p] {
			out.Observed[p] = v
		}
	}
	return &out
}

// ObserveRuleStats folds an evaluation's per-rule statistics into an
// observed-rows map: each rule's derived count accumulates on its head
// predicate, and the result keeps the maximum of the accumulated and any
// existing entry. prog must be the program the rules were measured over
// (RuleStats.Index addresses its rule list).
func ObserveRuleStats(observed map[string]float64, prog *ast.Program, rules []obsv.RuleStats) map[string]float64 {
	if observed == nil {
		observed = map[string]float64{}
	}
	derived := map[string]float64{}
	for _, rs := range rules {
		if rs.Index < 0 || rs.Index >= len(prog.Rules) {
			continue
		}
		derived[prog.Rules[rs.Index].Head.Pred] += float64(rs.TuplesDerived)
	}
	for pred, v := range derived {
		if v > observed[pred] {
			observed[pred] = v
		}
	}
	return observed
}
