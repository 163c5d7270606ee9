package main

import (
	"time"

	"factorlog/bench/work"
)

// loadSummary is the measured phase reduced to the numbers the metrics are
// computed from. Latencies cover correct operations only: a failed or
// refused request has no latency worth a percentile, it counts in failed.
type loadSummary struct {
	wall     time.Duration
	attempts int
	okOps    int
	queryMS  []float64
	factsMS  []float64
	classMS  map[string][]float64
	// Queries only: client latency minus the server's own total_wall_ns,
	// per response, and the sums behind eval_share and bytes per answer.
	overheadUS         []float64
	clientNS, evalNS   int64
	respBytes, answers int64
	userBytes          int64 // fact text acknowledged
	cpuMS, rssMiB      float64
	walBytes           int64
}

func summarize(all []sample, wall time.Duration) loadSummary {
	l := loadSummary{wall: wall, attempts: len(all), classMS: map[string][]float64{}}
	for _, s := range all {
		if !s.ok {
			continue
		}
		l.okOps++
		ms := float64(s.latency) / 1e6
		l.classMS[s.req.Class] = append(l.classMS[s.req.Class], ms)
		if s.req.IsFacts() {
			l.factsMS = append(l.factsMS, ms)
			l.userBytes += int64(s.req.UserBytes)
			continue
		}
		l.queryMS = append(l.queryMS, ms)
		l.overheadUS = append(l.overheadUS, float64(s.latency.Nanoseconds()-s.totalNS)/1e3)
		l.clientNS += s.latency.Nanoseconds()
		l.evalNS += s.evalNS
		l.respBytes += int64(s.bytes)
		l.answers += int64(s.req.Want.Count)
	}
	return l
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics fills the metrics a user of factorlogd would see. Every
// workload reports every one of them.
func endToEndMetrics(m map[string]work.Metric, l loadSummary, setupS, recoveryS []float64) {
	m["setup_s"] = work.M(work.Median(setupS), len(setupS))
	m["ops_per_s"] = work.M(ratio(float64(l.okOps), l.wall.Seconds()), 0)
	m["query_p50_ms"] = work.M(work.Percentile(l.queryMS, 50), len(l.queryMS))
	m["query_p95_ms"] = work.M(work.Percentile(l.queryMS, 95), len(l.queryMS))
	m["recovery_s"] = work.M(work.Median(recoveryS), len(recoveryS))
	m["cpu_ms_per_op"] = work.M(ratio(l.cpuMS, float64(l.okOps)), 0)
	m["server_peak_rss_mb"] = work.M(l.rssMiB, 0)
}

// classes are the operation classes a workload may contain; each gets a
// class.<name>.p50_ms so that a moved ops_per_s names its class.
var classes = []string{"auto", "magic", "factored_opt", "sup_magic", "counting",
	"stream", "workers2", "tabled", "assert", "retract"}

// clientLayerMetrics fills the layer numbers that are measured from outside
// the server process: the load-dependent latencies that do not exist on
// every workload (and so cannot be bounded end-to-end metrics), per-class
// medians, the HTTP layer's overhead, and /metrics counter deltas.
func clientLayerMetrics(m map[string]work.Metric, l loadSummary, before, after serverCounters) {
	m["failed_ratio"] = work.M(ratio(float64(l.attempts-l.okOps), float64(l.attempts)), 0)
	if n := len(l.queryMS); n >= 1000 { // a p99 needs ten samples beyond it
		m["query_p99_ms"] = work.M(work.Percentile(l.queryMS, 99), n)
	}
	if n := len(l.factsMS); n > 0 {
		m["facts_p50_ms"] = work.M(work.Percentile(l.factsMS, 50), n)
		if n >= 1000 {
			m["facts_p99_ms"] = work.M(work.Percentile(l.factsMS, 99), n)
		}
		m["wal_bytes_per_user_byte"] = work.M(ratio(float64(l.walBytes), float64(l.userBytes)), 0)
	}
	for _, c := range classes {
		if ms := l.classMS[c]; len(ms) > 0 {
			m["class."+c+".p50_ms"] = work.M(work.Median(ms), len(ms))
		}
	}
	if n := len(l.overheadUS); n > 0 {
		m["factorlogd.http_overhead_us"] = work.M(work.Median(l.overheadUS), n)
		m["factorlogd.eval_share"] = work.M(ratio(float64(l.evalNS), float64(l.clientNS)), 0)
		m["factorlogd.response_bytes_per_answer"] = work.M(ratio(float64(l.respBytes), float64(l.answers)), 0)
	}
	count := func(name string, v int64) { m[name] = work.M(float64(v), 0) }
	hits := after.PlanCache.Hits - before.PlanCache.Hits
	misses := after.PlanCache.Misses - before.PlanCache.Misses
	m["factorlogd.plan_cache_hit_ratio"] = work.M(ratio(float64(hits), float64(hits+misses)), 0)
	matHits := after.Mutation.Hits - before.Mutation.Hits
	builds := after.Mutation.Builds - before.Mutation.Builds
	deltas := after.Mutation.Deltas - before.Mutation.Deltas
	rebuilds := after.Mutation.Rebuilds - before.Mutation.Rebuilds
	m["factorlogd.mat_hit_ratio"] = work.M(ratio(float64(matHits), float64(matHits+builds+deltas+rebuilds)), 0)
	count("factorlogd.mat_refresh_build", builds)
	count("factorlogd.mat_refresh_delta", deltas)
	count("factorlogd.mat_refresh_rebuild", rebuilds)
	count("factorlogd.mat_evictions", after.Mutation.Evictions-before.Mutation.Evictions)
	count("factorlogd.wal_fsyncs", after.Durability.Fsyncs-before.Durability.Fsyncs)
	count("factorlogd.shed", after.Resilience.Admission.Shed-before.Resilience.Admission.Shed)
}
