// Command layerpass is the benchmark's in-process layer pass. It reads, on
// stdin, which workload a load run just executed and how long each of its
// operations took the client; replays a sample of those operations through
// the layers' public functions in the order factorlogd's handleQuery and
// handleFacts call them, with a span around every call; probes the layers
// the replay cannot see into; and prints the per-layer metrics as JSON on
// stdout. The spans go to the trace file named in the input.
//
// It is a program of its own, not part of the load generator, because it is
// the only part of the benchmark that compiles against the engine's
// internal packages.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"factorlog/bench/work"
	"factorlog/internal/pipeline"
)

// spanMetrics maps a span name to the metric its median self-time reports.
// Names carrying a family (engine.eval.tc_magic) are handled by prefix.
var spanMetrics = map[string]string{
	"parser.program":                "parser.program_ms",
	"parser.atom":                   "parser.atom_us",
	"resilience.acquire":            "resilience.acquire_ns",
	"cost.snapshot":                 "cost.snapshot_ms",
	"cost.autopick":                 "cost.autopick_ms",
	"adorn":                         "adorn.ms",
	"magic":                         "magic.ms",
	"magic.sup":                     "magic.sup_ms",
	"core.factor":                   "core.factor_ms",
	"optimize":                      "optimize.ms",
	"counting":                      "counting.ms",
	"pipeline.plan_miss":            "pipeline.plan_miss_ms",
	"pipeline.plan_hit":             "pipeline.plan_hit_us",
	"pipeline.mat_build":            "pipeline.mat_build_ms",
	"pipeline.mat_hit":              "pipeline.mat_hit_us",
	"pipeline.mat_delta_assert":     "pipeline.mat_delta_assert_ms",
	"pipeline.mat_delta_retract":    "pipeline.mat_delta_retract_ms",
	"pipeline.answers_project":      "pipeline.answers_project_us",
	"pipeline.apply":                "pipeline.apply_us",
	"engine.loadfacts":              "engine.loadfacts_ms",
	"engine.materialize_build":      "engine.materialize_build_ms",
	"engine.apply_assert":           "engine.apply_assert_us",
	"engine.apply_retract_counting": "engine.apply_retract_counting_us",
	"engine.apply_retract_dred":     "engine.apply_retract_dred_ms",
	"wal.snapshot_write":            "wal.snapshot_write_ms",
	"wal.open_recover":              "wal.open_recover_ms",
	"wal.since":                     "wal.since_ms",
	"factorlogd.encode":             "factorlogd.encode_us",
}

// familyMetrics maps a span-name prefix to a metric-name prefix; the family
// after the prefix carries over: engine.eval.tc_magic → engine.eval_ms.tc_magic.
var familyMetrics = map[string]string{
	"engine.eval.":    "engine.eval_ms.",
	"engine.eval_w2.": "engine.eval_w2_ms.",
	"stream.eval.":    "stream.eval_ms.",
	"topdown.tabled.": "topdown.tabled_ms.",
}

// shares groups the replayed operations' spans into layers whose share of
// the replayed time is reported, so that a layer predicted idle on a
// workload can be seen idle. They partition an operation (what is left is
// the replay's own glue). share.rewrite is the exception: the rewrite layers
// run inside cost.autopick and pipeline.plan_miss, so their share, taken
// from the "/layers" re-runs, is a part of share.cost + share.pipeline.
var shares = map[string][]string{
	"share.parser":   {"parser."},
	"share.cost":     {"cost."},
	"share.rewrite":  nil,
	"share.pipeline": {"pipeline."},
	"share.engine":   {"engine.", "stream.", "topdown."},
	"share.wal":      {"wal."},
	"share.encode":   {"factorlogd."},
}

// nsPer reads a time metric's unit off its name and returns how many
// nanoseconds one of it holds.
func nsPer(name string) float64 {
	base := name
	if i := strings.Index(name, "_ms."); i >= 0 { // engine.eval_ms.tc_magic
		base = name[:i+3]
	}
	switch {
	case strings.HasSuffix(base, "_ns"):
		return 1
	case strings.HasSuffix(base, "_us"):
		return 1e3
	default: // _ms and the bare ".ms" of the rewrite layers
		return 1e6
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "layerpass:", err)
		os.Exit(1)
	}
}

func run() error {
	var in work.LayerInput
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		return fmt.Errorf("input: %w", err)
	}
	sizes := work.Full
	if in.Smoke {
		sizes = work.Smoke
	}
	w, err := work.Generate(in.Workload, sizes, in.Seed, in.Blocks)
	if err != nil {
		return err
	}
	start := time.Now()
	budget := time.Duration(in.BudgetS * float64(time.Second))

	dir, err := os.MkdirTemp(filepath.Dir(in.Trace), "layerpass-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walDir := ""
	if w.Durable {
		walDir = dir + "/serve"
	}
	tr := newTracer()
	st, err := newState(tr, w, walDir)
	if err != nil {
		return err
	}
	defer st.close()

	// Warm-up is set-up, not load: run it unrecorded.
	tr.on = false
	for i, req := range w.Warmup {
		if _, err := st.replay(fmt.Sprintf("warmup-%d", i), req, ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	tr.on = true

	p := &prober{st: st, tr: tr, counts: samples{}, deadline: start.Add(budget)}
	done, err := replaySample(p, w, in, start.Add(budget/2))
	if err != nil {
		return err
	}

	// Probes, where the workload runs the layer.
	switch w.Name {
	case work.ColdBound:
		p.costProbes(w.Warmup)
	case work.ScratchEval:
		p.engineProbes(sizes)
	case work.LiveMutation:
		p.costProbes(nil)
		p.applyProbes(sizes)
		var batches []*work.Request
		for _, req := range w.Ops[0] {
			if req.IsFacts() {
				batches = append(batches, req)
			}
		}
		if err := p.walProbes(dir, batches); err != nil {
			return err
		}
		// The backlog: connection 0's batches the replay did not reach, read
		// back through its first query shape.
		var pending []*work.Request
		for _, req := range w.Ops[0][lastReplayed(done, 0)+1:] {
			if req.IsFacts() {
				pending = append(pending, req)
			}
		}
		p.backlogProbe(pending, w.Warmup[0])
	}

	out := metricsFromSpans(tr.spans)
	// Counts and ratios carry no unit here: the harness stamps every metric
	// with the unit BENCHMARK.json lists for it.
	for name, vs := range p.counts {
		v := work.Median(vs)
		if strings.HasSuffix(name, "_ratio") { // a ratio of outcomes is their mean
			v = 0
			for _, x := range vs {
				v += x / float64(len(vs))
			}
		}
		out[name] = work.M(v, len(vs))
	}
	coverage(out, done, in)

	if err := writeTrace(in.Trace, w.Name, in.Seed, tr.spans); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// lastReplayed is the highest operation index of conn the replay reached.
func lastReplayed(done []replayed, conn int) int {
	last := -1
	for _, r := range done {
		if r.conn == conn {
			last = max(last, r.index)
		}
	}
	return last
}

// replaySample replays operations the load executed until the deadline (or
// 2000 operations: enough for a median, small enough to write out).
// Mutation workloads are stateful, so they replay a prefix, the connections'
// cycles alternating; the others replay a sample spread evenly over
// everything the load reached. Every other operation runs with the tracer
// off, which is how the tracing overhead is measured.
func replaySample(p *prober, w *work.Workload, in work.LayerInput, deadline time.Time) ([]replayed, error) {
	const maxOps = 2000
	var done []replayed
	traced := true
	runOp := func(conn, index int, lastBatch string, leaves bool) error {
		req := w.Ops[conn][index]
		opID := fmt.Sprintf("c%d-%d", conn, index)
		p.tr.on = traced
		missesBefore := p.st.cache.Stats().Misses
		start := time.Now()
		out, err := p.st.replay(opID, req, lastBatch)
		took := time.Since(start)
		p.tr.on = true
		if err != nil {
			return fmt.Errorf("replay %s: %w", opID, err)
		}
		done = append(done, replayed{conn, index, took, traced})
		// Whatever compiled during the operation, re-run it layer by layer.
		if leaves && traced && p.st.cache.Stats().Misses > missesBefore {
			p.rewriteLeaves(opID, out.query, out.strategy, req.Strategy == pipeline.Auto.String())
		}
		return nil
	}

	if w.Name == work.LiveMutation {
		next := [work.Conns]int{}
		round := 0
		for len(done) < maxOps && time.Now().Before(deadline) {
			progressed := false
			for conn := 0; conn < work.Conns && conn < len(in.LatencyMS); conn++ {
				if next[conn] >= len(in.LatencyMS[conn]) {
					continue
				}
				lastBatch := ""
				for i, first := next[conn], next[conn]; i < len(in.LatencyMS[conn]); i++ {
					if i > first && w.Ops[conn][i].CycleStart {
						break
					}
					if w.Ops[conn][i].IsFacts() {
						lastBatch = w.Ops[conn][i].Class
					}
					if err := runOp(conn, i, lastBatch, false); err != nil {
						return done, err
					}
					next[conn] = i + 1
				}
				progressed = true
			}
			if !progressed {
				break
			}
			// Connection 0 alternates chain and digraph cycles, so the tracer
			// switches every second round: both halves see both kinds.
			round++
			traced = round/2%2 == 0
		}
		return done, nil
	}

	// A golden-ratio stride visits the executed operations so that any
	// prefix of the visit is spread evenly over them.
	for conn := 0; conn < work.Conns && conn < len(in.LatencyMS); conn++ {
		n := len(in.LatencyMS[conn])
		if n == 0 {
			continue
		}
		stride := work.Stride(n, 0)
		share := deadline.Sub(time.Now()) / time.Duration(work.Conns-conn)
		connDeadline := time.Now().Add(share)
		for j := 0; j < n && j < maxOps/work.Conns && time.Now().Before(connDeadline); j++ {
			if err := runOp(conn, (j*stride)%n, "", true); err != nil {
				return done, err
			}
			traced = !traced
		}
	}
	return done, nil
}

// metricsFromSpans reduces the trace to per-layer numbers: the median
// self-time of each span name, the WAL append percentiles, and each layer
// group's share of the replayed operations' time.
func metricsFromSpans(spans []span) map[string]work.Metric {
	self := selfTimes(spans)
	byName := samples{}
	var replayedNS float64
	shareNS := map[string]float64{}
	for i, s := range spans {
		byName.add(s.Name, float64(self[i]))
		if strings.HasPrefix(s.OpID, "probe/") || s.OpID == "startup" {
			continue
		}
		if s.Name == "op" {
			replayedNS += float64(s.EndNS - s.StartNS)
		}
		// A "/layers" operation re-runs work that already sits inside the
		// replayed operation's cost and pipeline spans; only the rewrite
		// layers, which appear nowhere else, take their share from it.
		if strings.HasSuffix(s.OpID, "/layers") {
			if s.Name != "op.layers" && s.Name != "engine.materialize_build" {
				shareNS["share.rewrite"] += float64(self[i])
			}
			continue
		}
		for share, prefixes := range shares {
			for _, prefix := range prefixes {
				if strings.HasPrefix(s.Name, prefix) {
					shareNS[share] += float64(self[i])
					break
				}
			}
		}
	}
	out := map[string]work.Metric{}
	for name, ns := range byName {
		target, ok := spanMetrics[name]
		if !ok {
			for prefix, to := range familyMetrics {
				if strings.HasPrefix(name, prefix) {
					target, ok = to+strings.TrimPrefix(name, prefix), true
				}
			}
		}
		if !ok {
			continue
		}
		out[target] = work.M(work.Median(ns)/nsPer(target), len(ns))
	}
	if ns := byName["wal.append_sync"]; len(ns) > 0 {
		out["wal.append_sync_p50_us"] = work.M(work.Percentile(ns, 50)/1e3, len(ns))
		if len(ns) >= 1000 {
			out["wal.append_sync_p99_us"] = work.M(work.Percentile(ns, 99)/1e3, len(ns))
		}
	}
	if replayedNS > 0 {
		for share := range shares {
			out[share] = work.M(shareNS[share]/replayedNS, 0)
		}
	}
	return out
}

// coverage reports how much of the client's latency the replay explains
// (replayed time over client latency, same operations) and what recording
// spans costs (mean replay time with the tracer on over off).
func coverage(out map[string]work.Metric, done []replayed, in work.LayerInput) {
	var replayNS, clientNS float64
	var on, off, nOn, nOff float64
	for _, r := range done {
		replayNS += float64(r.took.Nanoseconds())
		clientNS += in.LatencyMS[r.conn][r.index] * 1e6
		if r.traced {
			on += float64(r.took.Nanoseconds())
			nOn++
		} else {
			off += float64(r.took.Nanoseconds())
			nOff++
		}
	}
	if clientNS > 0 {
		out["trace.coverage_ratio"] = work.M(replayNS/clientNS, len(done))
	}
	if nOn > 0 && nOff > 0 && off > 0 {
		out["trace.overhead_ratio"] = work.M((on/nOn)/(off/nOff), len(done))
	}
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Schema   string `json:"schema"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{"factorlog/bench-trace/v1", workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
