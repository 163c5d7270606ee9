package work

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the sample count behind a percentile or median (0 for
	// counts and ratios).
	Samples int `json:"samples,omitempty"`
}

// M builds a Metric; its unit is stamped on from BENCHMARK.json when the run
// is reported.
func M(value float64, samples int) Metric { return Metric{Value: value, Samples: samples} }

// LayerInput is what the harness hands bench/layerpass on stdin after a
// load: which lists to regenerate, and how long each executed operation took
// the client. The reply, on stdout, is a map from metric name to Metric.
type LayerInput struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Smoke    bool    `json:"smoke"`
	Blocks   int     `json:"blocks"`
	BudgetS  float64 `json:"budget_s"` // time the pass may take
	Trace    string  `json:"trace"`    // where to write the spans
	// LatencyMS holds, per connection, the client latency of each operation
	// the load executed, in list order; its length is how far the load got.
	LatencyMS [][]float64 `json:"latency_ms"`
}
