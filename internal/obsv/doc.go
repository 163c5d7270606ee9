// Package obsv is the observability layer: plain record types shared by the
// engine (per-rule, per-round, per-stratum and per-worker evaluation
// counters), the pipeline (stage spans), and the command-line and server
// surfaces (plan-cache counters, latency histograms), plus text renderers
// for each. It is deliberately dependency-free and knows nothing about
// Datalog — producers fill the records, obsv formats them.
//
// None of the record types synchronize internally: single-threaded
// producers (the sequential evaluator) write them directly, and concurrent
// producers (the parallel evaluator's workers, the query server's request
// handlers) either keep per-worker records that a coordinator folds at a
// barrier or guard shared records with their own lock.
//
// The JSON tags define the one machine-readable metrics document:
// factorlogd's /metrics?format=json endpoint emits ServerStats under the
// schema string MetricsSchema. The evaluation records (spans, stream
// counters, storage stats) appear inside query and EXPLAIN responses, not
// as a document of their own.
package obsv
