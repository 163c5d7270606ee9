package obsv

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
)

// RuleStats aggregates the work one rule performed over a whole evaluation.
// The counters separate the paper's cost measure (successful instantiations)
// into its components: how often the rule ran, how much join work each run
// did, and how much of the derived output was new.
type RuleStats struct {
	// Index is the rule's position in the evaluated program.
	Index int `json:"index"`
	// Rule is the rendered source of the rule.
	Rule string `json:"rule"`
	// Firings counts evaluation passes over the rule (per round and, under
	// semi-naive, per delta occurrence).
	Firings int `json:"firings"`
	// JoinProbes counts candidate tuples examined across all body joins,
	// including candidates rejected by the semi-naive round filter.
	JoinProbes int `json:"join_probes"`
	// TuplesMatched counts candidates that unified with their body literal.
	TuplesMatched int `json:"tuples_matched"`
	// TuplesDerived counts new facts the rule added to the database.
	TuplesDerived int `json:"tuples_derived"`
	// Duplicates counts instantiations that re-derived an existing fact.
	Duplicates int `json:"duplicates"`
}

// Add accumulates o's counters into r (Index and Rule stay r's): the fold
// that merges a worker's, a round's or a subprogram's counters into one
// evaluation's record.
func (r *RuleStats) Add(o RuleStats) {
	r.Firings += o.Firings
	r.JoinProbes += o.JoinProbes
	r.TuplesMatched += o.TuplesMatched
	r.TuplesDerived += o.TuplesDerived
	r.Duplicates += o.Duplicates
}

// StorageStats describes the storage shape of a database after evaluation:
// how many bytes sit in the tuple arenas versus the open-addressed hash
// tables, and how loaded those tables are. Loads near 0.75 mean a growth is
// imminent; loads far below 0.375 mean the last growth left slack.
type StorageStats struct {
	// Relations counts the database's relations; Facts their total tuples.
	Relations int `json:"relations"`
	Facts     int `json:"facts"`
	// ArenaBytes is the capacity of the columnar tuple arenas (tuple words
	// plus round stamps) across all relations.
	ArenaBytes int64 `json:"arena_bytes"`
	// IndexBytes covers the membership tables (4 bytes a slot: a row id,
	// confirmed against the arena, with no stored hash), the column-index
	// tables (a 64-bit key hash and a bucket id a slot, the hash kept
	// because index probes are the join's hottest path), and index
	// postings.
	IndexBytes int64 `json:"index_bytes"`
	// Indexes counts column indexes across all relations.
	Indexes int `json:"indexes"`
	// PresentLoad is the mean load factor of the membership hash tables;
	// IndexLoad the mean across column-index tables. Both are averaged over
	// non-empty relations only.
	PresentLoad float64 `json:"present_load"`
	IndexLoad   float64 `json:"index_load"`
}

// StreamStats counts what the engine's stratified schedule
// (engine.StreamAuto) did: how many strata ran one pass, and what those
// passes emitted.
type StreamStats struct {
	// Strata counts the schedule's strata; Streamed how many were
	// non-recursive and ran one pass (the rest ran semi-naive rounds).
	Strata   int `json:"strata"`
	Streamed int `json:"streamed"`
	// RowsEmitted counts head rows the one-pass strata produced (including
	// duplicates); Duplicates how many re-derived existing facts.
	RowsEmitted int64 `json:"rows_emitted"`
	Duplicates  int64 `json:"duplicates"`
	// Pushdowns counts the columns that key the one-pass strata's index
	// probes: constants and join equalities.
	Pushdowns int `json:"pushdowns"`
}

// StreamLine renders a one-line summary of a StreamStats record.
func StreamLine(s StreamStats) string {
	return fmt.Sprintf("stream: %d/%d strata streamed, %d rows (%d dup), %d pushdowns",
		s.Streamed, s.Strata, s.RowsEmitted, s.Duplicates, s.Pushdowns)
}

// FormatDuration renders d rounded to the nearest microsecond, keeping the
// tables readable without losing sub-millisecond stages.
func FormatDuration(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// newTable returns a tabwriter configured uniformly for all obsv tables.
func newTable(b *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(b, 0, 0, 2, ' ', 0)
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// StorageLine renders a one-line summary of a StorageStats record for the
// profile view and the REPL :stats command.
func StorageLine(s StorageStats) string {
	return fmt.Sprintf(
		"storage: %d facts in %d relations, arena %s, indexes %s (%d tables, load %.2f/%.2f)",
		s.Facts, s.Relations, FormatBytes(s.ArenaBytes), FormatBytes(s.IndexBytes),
		s.Indexes, s.PresentLoad, s.IndexLoad)
}

// RuleTable renders per-rule counters as an aligned table, one row per rule
// in program order.
func RuleTable(rules []RuleStats) string {
	var b strings.Builder
	w := newTable(&b)
	fmt.Fprintln(w, "#\tfirings\tprobes\tmatched\tderived\tdup\trule")
	for _, r := range rules {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.Index, r.Firings, r.JoinProbes, r.TuplesMatched,
			r.TuplesDerived, r.Duplicates, r.Rule)
	}
	w.Flush()
	return b.String()
}
