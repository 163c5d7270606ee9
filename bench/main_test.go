package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factorlog/bench/work"
)

func loadSpec(t *testing.T) (string, spec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	return root, sp
}

func TestSpecListsTheFrozenWorkloads(t *testing.T) {
	_, sp := loadSpec(t)
	if len(sp.Workloads) != len(work.Names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the generator has %d", len(sp.Workloads), len(work.Names))
	}
	for i, w := range sp.Workloads {
		if w.Name != work.Names[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, work.Names[i])
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

func TestCompareSetsFlagsABreach(t *testing.T) {
	sp := spec{EndToEnd: []metricSpec{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	set := func(ops, p50 float64) *runResult {
		return &runResult{Workload: "hot_hit", Pass: "end_to_end", Metrics: map[string]work.Metric{
			"ops_per_s": {Value: ops, Unit: "1/s"}, "query_p50_ms": {Value: p50, Unit: "ms"}}}
	}
	var out bytes.Buffer
	if !compareSets(&out, []*runResult{set(100, 1.0), set(95, 1.05)}, sp) {
		t.Errorf("5%% either way flagged as a breach:\n%s", out.String())
	}
	out.Reset()
	if compareSets(&out, []*runResult{set(100, 1.0), set(85, 1.0)}, sp) || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a 15%% throughput drop was not flagged:\n%s", out.String())
	}
	if !compareSets(&out, []*runResult{set(100, 1.0), set(130, 0.5)}, sp) {
		t.Error("an improvement was flagged as a breach")
	}
}

func TestConformFillsAndRejects(t *testing.T) {
	sp := spec{PerLayer: []metricSpec{{Name: "a.ms", Unit: "ms"}, {Name: "b.count", Unit: "count"}}}
	res := &runResult{Pass: "per_layer", Metrics: map[string]work.Metric{"a.ms": {Value: 1, Unit: "ms"}, "stray": {Value: 2}}}
	conform(res, sp)
	if m, ok := res.Metrics["b.count"]; !ok || m.Value != 0 || m.Unit != "count" {
		t.Errorf("idle layer metric not zero-filled: %+v", res.Metrics)
	}
	if _, ok := res.Metrics["stray"]; ok || res.Failed != 1 {
		t.Errorf("unlisted metric accepted: failed=%d %+v", res.Failed, res.Metrics)
	}
}

// TestSmokeEndToEnd builds factorlogd and the layer pass and runs every
// workload's two passes at smoke size: every response oracle-equal, every
// listed metric reported, a trace file per workload, no process left.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs factorlogd")
	}
	root, sp := loadSpec(t)
	outDir := t.TempDir()
	ctx := context.Background()
	bins, err := build(ctx, root, outDir)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupAll()
	for _, name := range work.Names {
		for _, layers := range []bool{false, true} {
			res, err := run(ctx, runConfig{workload: name, seed: 1, seconds: 1, smoke: true,
				layers: layers, bins: bins, outDir: outDir})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			conform(res, sp)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: attempted %d, failed %d: %v", name, res.Pass, res.Attempted, res.Failed, res.Failures)
			}
			if !layers {
				for _, m := range sp.EndToEnd {
					// A one-second smoke run can round the CPU clock to zero.
					if res.Metrics[m.Name].Value <= 0 && m.Name != "cpu_ms_per_op" {
						t.Errorf("%s: %s = %v", name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			} else if _, err := os.Stat(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
		}
	}
	procs.Lock()
	running, dirs := len(procs.running), len(procs.tmpDirs)
	procs.Unlock()
	if running != 0 {
		t.Errorf("%d servers still running", running)
	}
	cleanupAll()
	if entries, _ := filepath.Glob(filepath.Join(outDir, "wal-*")); len(entries) != 0 {
		t.Errorf("WAL directories left behind (%d tracked): %v", dirs, entries)
	}
}
