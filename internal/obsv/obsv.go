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
	// IndexBytes covers the membership tables, column-index tables, and
	// index postings.
	IndexBytes int64 `json:"index_bytes"`
	// Indexes counts column indexes across all relations.
	Indexes int `json:"indexes"`
	// PresentLoad is the mean load factor of the membership hash tables;
	// IndexLoad the mean across column-index tables. Both are averaged over
	// non-empty relations only.
	PresentLoad float64 `json:"present_load"`
	IndexLoad   float64 `json:"index_load"`
}

// StreamOpStats is one streaming operator's measured row flow: how many
// candidate rows it examined and how many rows it produced. The streaming
// executor (internal/stream) reports one record per operator per rule, in
// pipeline order (source first, materialize last).
type StreamOpStats struct {
	// Stratum is the stratum the operator's rule belongs to; Rule its rule
	// index in the evaluated program.
	Stratum int `json:"stratum"`
	Rule    int `json:"rule"`
	// Op names the operator: scan, hash-join, nested-loop, project,
	// materialize, const.
	Op string `json:"op"`
	// Pred is the relation the operator reads or writes, when it has one.
	Pred string `json:"pred,omitempty"`
	// RowsIn counts candidate rows the operator examined; Rows counts rows
	// it produced (for materialize: distinct facts inserted).
	RowsIn int64 `json:"rows_in,omitempty"`
	Rows   int64 `json:"rows"`
	// Pushed lists the predicates pushed into the operator: selections
	// applied during the scan or probe ("σ col0=5") and join equalities
	// folded into the probe key ("col1=$2").
	Pushed []string `json:"pushed,omitempty"`
}

// StreamStats aggregates a streaming evaluation: how much of the program
// streamed, the iterator row flow, and how probes were served.
type StreamStats struct {
	// Strata counts the schedule's strata; Streamed how many ran on the
	// iterator executor (the rest ran the materializing fixpoint).
	Strata   int `json:"strata"`
	Streamed int `json:"streamed"`
	// RowsEmitted counts head rows the streamed pipelines produced
	// (including duplicates); Duplicates how many re-derived existing facts.
	RowsEmitted int64 `json:"rows_emitted"`
	Duplicates  int64 `json:"duplicates"`
	// Probes counts join probes issued by streamed operators. IndexReuses
	// of them were served by a relation's persistent index; the rest went to
	// transient build tables: BuildTables of them, over BuildRows rows,
	// pre-sized from the relation's fact count and discarded after the run.
	Probes      int64 `json:"probes"`
	IndexReuses int64 `json:"index_reuses"`
	BuildTables int   `json:"build_tables"`
	BuildRows   int64 `json:"build_rows"`
	// Pushdowns counts predicates pushed into scans and probe keys across
	// the streamed plan.
	Pushdowns int `json:"pushdowns"`
	// Ops holds the per-operator row counters, nil unless tracing.
	Ops []StreamOpStats `json:"ops,omitempty"`
}

// StreamLine renders a one-line summary of a StreamStats record.
func StreamLine(s StreamStats) string {
	return fmt.Sprintf(
		"stream: %d/%d strata streamed, %d rows (%d dup), %d probes (%d via persistent index, %d build tables/%d rows), %d pushdowns",
		s.Streamed, s.Strata, s.RowsEmitted, s.Duplicates,
		s.Probes, s.IndexReuses, s.BuildTables, s.BuildRows, s.Pushdowns)
}

// StreamOpTable renders per-operator row counters as an aligned table.
func StreamOpTable(ops []StreamOpStats) string {
	var b strings.Builder
	w := newTable(&b)
	fmt.Fprintln(w, "stratum\trule\top\tpred\trows-in\trows\tpushed")
	for _, o := range ops {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%s\n",
			o.Stratum, o.Rule, o.Op, o.Pred, o.RowsIn, o.Rows,
			strings.Join(o.Pushed, " "))
	}
	w.Flush()
	return b.String()
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
