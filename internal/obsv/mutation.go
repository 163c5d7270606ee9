package obsv

import (
	"fmt"
	"strings"
)

// MutationStats is the mutation + materialization block of the server
// metrics: the epoch counter, EDB mutation counters, and the materialization
// registry's refresh behavior. ChangeRatio observes
// changed-facts / total-facts per refresh — the O(change) vs O(db) measure
// incremental maintenance exists to keep small (delta refreshes sit near
// zero; DRed-style rebuilds approach one).
type MutationStats struct {
	// Epoch is the current mutation epoch (one per effective batch).
	Epoch int64 `json:"epoch"`
	// BaseFacts is the number of live EDB facts.
	BaseFacts int `json:"base_facts"`
	// Batches counts effective mutation batches applied.
	Batches int64 `json:"batches"`
	// FactsAsserted / FactsRetracted count effective EDB changes;
	// NoopAsserts / NoopRetracts count entries that changed nothing.
	FactsAsserted  int64 `json:"facts_asserted"`
	FactsRetracted int64 `json:"facts_retracted"`
	NoopAsserts    int64 `json:"noop_asserts"`
	NoopRetracts   int64 `json:"noop_retracts"`
	// Entries is the number of live materializations in the registry;
	// Evictions counts LRU evictions.
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
	// Refresh dispositions per materialized serve: Hits answered at the
	// current epoch with no work, Deltas caught up via logged batches,
	// Rebuilds recomputed from the base EDB, Builds computed an entry for
	// the first time.
	Hits     int64 `json:"hits"`
	Deltas   int64 `json:"deltas"`
	Rebuilds int64 `json:"rebuilds"`
	Builds   int64 `json:"builds"`
	// WalDeltas counts the Deltas whose batches came from the durable
	// write-ahead log after the in-memory log had already trimmed them —
	// refreshes that would have been rebuilds without the WAL.
	WalDeltas int64 `json:"wal_deltas,omitempty"`
	// RefreshWall observes the wall time of non-hit refreshes.
	RefreshWall *Histogram `json:"refresh_wall,omitempty"`
	// ChangeRatio observes changed/total facts per non-hit refresh.
	ChangeRatio *ValueHistogram `json:"change_ratio,omitempty"`
}

// ChangeRatioBounds are the ChangeRatio histogram buckets: powers of 4
// from 1e-4 up — small-delta refreshes land in the lowest buckets,
// rebuilds in the top one.
func ChangeRatioBounds() []float64 { return ExponentialValueBounds(1e-4, 4, 8) }

// MutationLines renders the block for the text metrics format.
func MutationLines(m MutationStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d  base_facts %d  batches %d\n", m.Epoch, m.BaseFacts, m.Batches)
	fmt.Fprintf(&b, "asserted %d (%d noop)  retracted %d (%d noop)\n",
		m.FactsAsserted, m.NoopAsserts, m.FactsRetracted, m.NoopRetracts)
	fmt.Fprintf(&b, "materializations %d (evicted %d)  hit %d  delta %d (%d via wal)  rebuild %d  build %d\n",
		m.Entries, m.Evictions, m.Hits, m.Deltas, m.WalDeltas, m.Rebuilds, m.Builds)
	if m.RefreshWall != nil {
		fmt.Fprintf(&b, "refresh p50 %v p99 %v\n", m.RefreshWall.Quantile(0.5), m.RefreshWall.Quantile(0.99))
	}
	return b.String()
}
