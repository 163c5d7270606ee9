package obsv

import (
	"fmt"
	"strings"
)

// This file holds the resilience-layer records surfaced by /metrics:
// admission-control counters from internal/resilience and the server's
// panic/shed/budget tallies. Like every obsv record they are plain data —
// producers maintain them under their own locks.

// AdmissionStats is a snapshot of a resilience.Limiter.
type AdmissionStats struct {
	// Capacity is the total concurrent weight the limiter admits.
	Capacity int64 `json:"capacity"`
	// InUse is the weight currently admitted.
	InUse int64 `json:"in_use"`
	// QueueDepth is the number of requests currently waiting.
	QueueDepth int `json:"queue_depth"`
	// QueueLimit is the maximum queue length before shedding.
	QueueLimit int `json:"queue_limit"`
	// Admitted counts successful admissions (immediate or after queueing).
	Admitted int64 `json:"admitted"`
	// Queued counts admissions that had to wait before admission or failure.
	Queued int64 `json:"queued"`
	// Shed counts requests rejected because the queue was full.
	Shed int64 `json:"shed"`
	// QueueTimeouts counts requests whose context ended while queued.
	QueueTimeouts int64 `json:"queue_timeouts"`
}

// ResilienceStats aggregates the server's failure-governance counters.
type ResilienceStats struct {
	// Admission reports the /query admission limiter.
	Admission AdmissionStats `json:"admission"`
	// Panics counts evaluations that ended in a recovered panic
	// (engine.ErrInternal responses).
	Panics int64 `json:"panics"`
	// Degraded counts evaluations that fell back from parallel to
	// sequential after a worker panic and then succeeded.
	Degraded int64 `json:"degraded"`
	// MemoryBudgetStops counts evaluations stopped by engine.ErrMemoryBudget.
	MemoryBudgetStops int64 `json:"memory_budget_stops"`
	// Drained counts requests refused with 503 because the server was
	// shutting down.
	Drained int64 `json:"drained"`
}

// AdmissionLine renders admission counters compactly.
func AdmissionLine(a AdmissionStats) string {
	return fmt.Sprintf("admission: %d/%d weight in use, queue %d/%d, %d admitted, %d queued, %d shed, %d queue timeouts",
		a.InUse, a.Capacity, a.QueueDepth, a.QueueLimit, a.Admitted, a.Queued, a.Shed, a.QueueTimeouts)
}

// ResilienceLines renders the resilience block as text for
// /metrics?format=text.
func ResilienceLines(r ResilienceStats) string {
	var b strings.Builder
	b.WriteString(AdmissionLine(r.Admission))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "failures: %d panics, %d degraded, %d memory-budget stops, %d drained\n",
		r.Panics, r.Degraded, r.MemoryBudgetStops, r.Drained)
	return b.String()
}
