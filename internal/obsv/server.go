package obsv

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file holds the serving-side records: plan-cache counters and latency
// histograms filled by long-lived query processes (cmd/factorlogd). Like
// the rest of the package they are plain data — producers guard them with
// their own locks and obsv only formats them. The JSON tags define the
// /metrics document (MetricsSchema; its resilience, mutation, plan_search
// and durability blocks live in the files of those names).

// CacheStats describes a memoizing cache (the pipeline plan cache).
type CacheStats struct {
	// Hits counts lookups that reused a cached entry (including cached
	// failures).
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to build a new entry.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to stay within the cache's bound.
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached entries.
	Entries int `json:"entries"`
}

// HistogramBounds are the default bucket upper bounds: exponential with
// growth factor 4 from 16µs to ~4.3s, plus an implicit overflow bucket. The
// range covers sub-millisecond cache-hit queries and multi-second scans in
// ten buckets. Histograms that need different resolution pass their own
// bounds to NewHistogramBounds (see ExponentialBounds).
var HistogramBounds = ExponentialBounds(16*time.Microsecond, 4, 10)

// ExponentialBounds builds n bucket upper bounds starting at lo and growing
// by the given factor: lo, lo*growth, lo*growth², ... . It panics on a
// non-positive lo or n, or growth <= 1, since silently odd buckets corrupt
// every quantile read off them.
func ExponentialBounds(lo time.Duration, growth float64, n int) []time.Duration {
	if lo <= 0 || growth <= 1 || n <= 0 {
		panic(fmt.Sprintf("obsv: invalid exponential bounds (lo=%v growth=%v n=%d)", lo, growth, n))
	}
	bounds := make([]time.Duration, n)
	f := float64(lo)
	for i := range bounds {
		bounds[i] = time.Duration(f)
		f *= growth
	}
	return bounds
}

// Histogram is a fixed-bucket latency histogram with one extra overflow
// bucket past the last bound. The zero value is not ready to use; call
// NewHistogram or NewHistogramBounds. Like all obsv records it is not safe
// for concurrent mutation — callers serialize Observe with their own lock.
type Histogram struct {
	// Bounds are the bucket upper bounds, ascending. Empty means the package
	// default (HistogramBounds) — kept out of the JSON in that case so the
	// common document stays compact.
	Bounds []time.Duration `json:"bounds_ns,omitempty"`
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the total of all observations.
	Sum time.Duration `json:"sum_ns"`
	// Max is the largest observation.
	Max time.Duration `json:"max_ns"`
	// BucketCounts[i] counts observations <= bounds[i]; the final element
	// counts overflow.
	BucketCounts []int64 `json:"bucket_counts"`
}

// NewHistogram returns an empty histogram over the default bounds.
func NewHistogram() *Histogram {
	return &Histogram{BucketCounts: make([]int64, len(HistogramBounds)+1)}
}

// NewHistogramBounds returns an empty histogram over the given ascending
// bucket upper bounds.
func NewHistogramBounds(bounds []time.Duration) *Histogram {
	return &Histogram{
		Bounds:       append([]time.Duration(nil), bounds...),
		BucketCounts: make([]int64, len(bounds)+1),
	}
}

// bounds returns the effective bucket bounds (the package default when the
// histogram was built by NewHistogram).
func (h *Histogram) bounds() []time.Duration {
	if len(h.Bounds) > 0 {
		return h.Bounds
	}
	return HistogramBounds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
	for i, b := range h.bounds() {
		if d <= b {
			h.BucketCounts[i]++
			return
		}
	}
	h.BucketCounts[len(h.BucketCounts)-1]++
}

// Quantile estimates the q-quantile (0 < q <= 1) by locating the bucket
// where the cumulative count crosses rank q·Count and interpolating
// linearly inside it. The first bucket interpolates from 0; the overflow
// bucket interpolates between the last bound and Max, so a histogram whose
// tail spills past the bounds still reports a finite, monotone p99. Results
// never exceed Max; zero observations yield 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	bounds := h.bounds()
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.BucketCounts {
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= target {
			var lo, hi time.Duration
			if i > 0 {
				lo = bounds[i-1]
			}
			if i < len(bounds) {
				hi = bounds[i]
			} else {
				// Overflow bucket: the only honest upper edge is the
				// largest observation itself.
				lo, hi = bounds[len(bounds)-1], h.Max
				if hi < lo {
					hi = lo
				}
			}
			frac := (target - float64(cum)) / float64(n)
			est := lo + time.Duration(frac*float64(hi-lo))
			if est > h.Max {
				est = h.Max
			}
			return est
		}
		cum += n
	}
	return h.Max
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// ValueHistogram is a fixed-bucket histogram over unitless values (fixpoint
// rounds, arena bytes) with the same layout and bucket semantics as
// Histogram. Not safe for concurrent mutation.
type ValueHistogram struct {
	// Bounds are the bucket upper bounds, ascending.
	Bounds []float64 `json:"bounds"`
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the total of all observations.
	Sum float64 `json:"sum"`
	// Max is the largest observation.
	Max float64 `json:"max"`
	// BucketCounts[i] counts observations <= Bounds[i]; the final element
	// counts overflow.
	BucketCounts []int64 `json:"bucket_counts"`
}

// NewValueHistogram returns an empty histogram over the given ascending
// bucket upper bounds.
func NewValueHistogram(bounds []float64) *ValueHistogram {
	return &ValueHistogram{
		Bounds:       append([]float64(nil), bounds...),
		BucketCounts: make([]int64, len(bounds)+1),
	}
}

// ExponentialValueBounds is ExponentialBounds for unitless values.
func ExponentialValueBounds(lo, growth float64, n int) []float64 {
	if lo <= 0 || growth <= 1 || n <= 0 {
		panic(fmt.Sprintf("obsv: invalid exponential bounds (lo=%v growth=%v n=%d)", lo, growth, n))
	}
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = lo
		lo *= growth
	}
	return bounds
}

// Observe records one value.
func (h *ValueHistogram) Observe(v float64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	for i, b := range h.Bounds {
		if v <= b {
			h.BucketCounts[i]++
			return
		}
	}
	h.BucketCounts[len(h.BucketCounts)-1]++
}

// MetricsSchema names the layout of ServerStats, the only metrics document
// this module emits: request and plan-cache counters, per-strategy latency
// histograms, the storage high-water mark, and the resilience, mutation,
// plan_search and durability blocks. Earlier numbers belong to retired
// documents (docs/history/README.md).
const MetricsSchema = "factorlog/metrics/v10"

// ServerStats is the /metrics document of a query server.
type ServerStats struct {
	// Schema names the document layout.
	Schema string `json:"schema"`
	// UptimeSeconds is the time since the server started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Queries counts completed /query requests (successes and failures).
	Queries int64 `json:"queries"`
	// Errors counts /query requests that returned an error.
	Errors int64 `json:"errors"`
	// InFlight is the number of /query requests currently evaluating.
	InFlight int64 `json:"in_flight"`
	// PlanCache reports the compiled-plan cache counters.
	PlanCache CacheStats `json:"plan_cache"`
	// Latency holds one request-latency histogram per strategy name.
	Latency map[string]*Histogram `json:"latency_by_strategy"`
	// Rounds histograms per-query fixpoint rounds across all strata
	// (optional: servers that do not record it omit the field).
	Rounds *ValueHistogram `json:"rounds,omitempty"`
	// ArenaBytes histograms per-query storage footprint (arena + index
	// bytes), the distribution behind StorageHighWater's single maximum.
	ArenaBytes *ValueHistogram `json:"arena_bytes,omitempty"`
	// SlowQueries counts queries that exceeded the slow-query threshold.
	SlowQueries int64 `json:"slow_queries,omitempty"`
	// TracedQueries counts queries that recorded a span trace (sampled,
	// explained, or slow-logged).
	TracedQueries int64 `json:"traced_queries,omitempty"`
	// StorageHighWater is the largest per-request storage footprint seen
	// since startup (selected by arena + index bytes): what the heaviest
	// query's database cost in tuple arenas and hash tables.
	StorageHighWater StorageStats `json:"storage_high_water"`
	// Resilience reports admission control and failure-governance counters.
	Resilience ResilienceStats `json:"resilience"`
	// Mutation reports the mutation epoch, /facts counters, and the
	// materialization registry's refresh behavior.
	Mutation MutationStats `json:"mutation"`
	// PlanSearch reports the adaptive optimizer's pick/re-cost counters.
	PlanSearch PlanSearchStats `json:"plan_search"`
	// Durability reports the write-ahead log and snapshot counters
	// (Enabled false when the server runs without -wal-dir).
	Durability DurabilityStats `json:"durability"`
}

// CacheLine renders cache counters compactly, with the hit rate.
func CacheLine(c CacheStats) string {
	total := c.Hits + c.Misses
	rate := 0.0
	if total > 0 {
		rate = float64(c.Hits) / float64(total)
	}
	return fmt.Sprintf("plan cache: %d entries, %d hits, %d misses, %d evictions (%.1f%% hit rate)",
		c.Entries, c.Hits, c.Misses, c.Evictions, 100*rate)
}

// LatencyTable renders per-strategy latency histograms as an aligned
// table, rows sorted by strategy name.
func LatencyTable(byStrategy map[string]*Histogram) string {
	names := make([]string, 0, len(byStrategy))
	for name := range byStrategy {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	w := newTable(&b)
	fmt.Fprintln(w, "strategy\tcount\tmean\tp50\tp90\tp99\tmax")
	for _, name := range names {
		h := byStrategy[name]
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			name, h.Count, FormatDuration(h.Mean()),
			FormatDuration(h.Quantile(0.50)), FormatDuration(h.Quantile(0.90)),
			FormatDuration(h.Quantile(0.99)), FormatDuration(h.Max))
	}
	w.Flush()
	return b.String()
}

// ServerTable renders a ServerStats document as text: the header counters,
// the cache line, and the latency table.
func ServerTable(s ServerStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "uptime %.1fs, %d queries (%d errors), %d in flight\n",
		s.UptimeSeconds, s.Queries, s.Errors, s.InFlight)
	b.WriteString(CacheLine(s.PlanCache))
	b.WriteByte('\n')
	b.WriteString(ResilienceLines(s.Resilience))
	b.WriteString(MutationLines(s.Mutation))
	b.WriteString(PlanSearchLines(s.PlanSearch))
	b.WriteString(DurabilityLines(s.Durability))
	if s.StorageHighWater.Relations > 0 {
		b.WriteString("high-water ")
		b.WriteString(StorageLine(s.StorageHighWater))
		b.WriteByte('\n')
	}
	if len(s.Latency) > 0 {
		b.WriteString(LatencyTable(s.Latency))
	}
	return b.String()
}
