package obsv

import (
	"strings"
	"testing"
	"time"
)

func sampleStats() ServerStats {
	lat := NewHistogram()
	for _, d := range []time.Duration{
		40 * time.Microsecond, 300 * time.Microsecond, 2 * time.Millisecond, 6 * time.Second,
	} {
		lat.Observe(d)
	}
	rounds := NewValueHistogram(RoundsBucketBounds)
	rounds.Observe(3)
	rounds.Observe(17)
	arena := NewValueHistogram(ArenaBucketBounds)
	arena.Observe(65536)
	return ServerStats{
		Schema:        MetricsSchema,
		UptimeSeconds: 12.5,
		Queries:       42,
		Errors:        3,
		InFlight:      1,
		PlanCache:     CacheStats{Hits: 30, Misses: 12, Evictions: 2, Entries: 10},
		Latency:       map[string]*Histogram{"factored": lat, "magic": NewHistogram()},
		Rounds:        rounds,
		ArenaBytes:    arena,
		SlowQueries:   2,
		TracedQueries: 5,
		StorageHighWater: StorageStats{
			Relations: 3, Facts: 100, ArenaBytes: 4096, IndexBytes: 1024,
		},
		Resilience: ResilienceStats{
			Admission: AdmissionStats{Capacity: 8, InUse: 1, QueueLimit: 64,
				Admitted: 40, Queued: 5, Shed: 1, QueueTimeouts: 1},
			Panics: 1, Degraded: 1, MemoryBudgetStops: 1, Drained: 1,
		},
	}
}

func TestPromExpositionParses(t *testing.T) {
	text := PromExposition(sampleStats())
	n, err := ParsePromText(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if n < 30 {
		t.Errorf("suspiciously few samples: %d", n)
	}
	for _, want := range []string{
		"# TYPE factorlog_query_duration_seconds histogram",
		`factorlog_query_duration_seconds_bucket{strategy="factored",le="+Inf"} 4`,
		`factorlog_query_duration_seconds_count{strategy="factored"} 4`,
		"# TYPE factorlog_queries_total counter",
		"factorlog_queries_total 42",
		"factorlog_query_rounds_bucket",
		"factorlog_admission_shed_total 1",
		"factorlog_storage_high_water_bytes 5120",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestPromHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var b strings.Builder
	b.WriteString("# TYPE m histogram\n")
	writeDurationHistogram(&b, "m", `strategy="x"`, h)
	if _, err := ParsePromText(b.String()); err != nil {
		t.Fatalf("histogram series invalid: %v\n%s", err, b.String())
	}
}

func TestParsePromTextRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"no TYPE":           "foo 1\n",
		"bad type":          "# TYPE foo wat\nfoo 1\n",
		"bad name":          "# TYPE 9foo counter\n9foo 1\n",
		"bad value":         "# TYPE foo counter\nfoo abc\n",
		"unquoted label":    "# TYPE foo counter\nfoo{a=b} 1\n",
		"unterminated":      "# TYPE foo counter\nfoo{a=\"b 1\n",
		"no +Inf bucket":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf != count":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing sum":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"le order":          "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"dup TYPE":          "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"bucket without le": "# TYPE h histogram\nh_bucket 3\nh_sum 1\nh_count 3\n",
	}
	for name, text := range cases {
		if _, err := ParsePromText(text); err == nil {
			t.Errorf("%s: parser accepted invalid input:\n%s", name, text)
		}
	}
}

func TestParsePromTextAcceptsValidCorpus(t *testing.T) {
	text := strings.Join([]string{
		"# a free-form comment",
		"# HELP up Whether the target is up.",
		"# TYPE up gauge",
		"up 1",
		"# TYPE rpc_total counter",
		`rpc_total{method="get",code="200"} 17 1700000000`,
		`rpc_total{method="post\n\"x\"\\"} 2`,
		"# TYPE lat histogram",
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 0.7",
		"lat_count 2",
		"",
	}, "\n")
	n, err := ParsePromText(text)
	if err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}
	if n != 7 {
		t.Errorf("samples = %d, want 7", n)
	}
}
