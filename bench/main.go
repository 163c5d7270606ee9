// Command bench is factorlogd's end-to-end and per-layer benchmark. It
// builds cmd/factorlogd from the enclosing checkout, starts it as a
// subprocess per workload, drives it over loopback HTTP with two closed-loop
// connections, checks every response against an oracle that never calls the
// engine, and prints every metric by name with its unit. See README.md.
//
//	go run -C bench .                          all four workloads, both passes
//	go run -C bench . -workload hot_hit        one workload (comma-separate several)
//	go run -C bench . -aa                      everything twice, compared against the bounds
//	go run -C bench . -smoke                   tiny sizes, a few seconds
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//	                                           one run; last stdout line is its JSON result
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"factorlog/bench/work"
)

// spec is BENCHMARK.json: the one place metric names, units, directions and
// bounds are written down. The harness reads it back so that what it prints
// is what the file promises.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// binaries are the programs the harness builds before the first run.
type binaries struct{ factorlogd, layerpass string }

func main() {
	code, err := realMain()
	cleanupAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func realMain() (int, error) {
	workloads := flag.String("workload", "", "workload name[,name] (default: all four)")
	seed := flag.Int64("seed", 1, "seed for the EDB and every operation list")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0 = end-to-end pass, 1 = per-layer pass, -1 = both")
	aa := flag.Bool("aa", false, "run the whole set twice and compare the two against the bounds")
	smoke := flag.Bool("smoke", false, "tiny sizes and a one-second load: checks the harness, measures nothing")
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	var sp spec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return 1, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := work.Names
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	if *smoke {
		*seconds = 1
	}

	// Every exit path kills the servers and removes the WAL directories:
	// SIGINT and SIGTERM cancel the context and the deferred clean-up in
	// main runs; a wedged run is cut down by its deadline below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	bins, err := build(ctx, root, outDir)
	if err != nil {
		return 1, err
	}

	passes := []bool{false, true}
	if *trace == 0 {
		passes = []bool{false}
	} else if *trace == 1 {
		passes = []bool{true}
	}
	sets := 1
	if *aa {
		sets = 2
	}
	doc := newDocument(root, *seed, *seconds, *smoke)
	var last *runResult
	for set := 0; set < sets; set++ {
		for _, name := range names {
			for _, layers := range passes {
				cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, smoke: *smoke,
					layers: layers, bins: bins, outDir: outDir}
				res, err := runWithDeadline(ctx, cfg)
				if err != nil {
					return 1, fmt.Errorf("%s: %w", name, err)
				}
				conform(res, sp)
				doc.Runs = append(doc.Runs, res)
				printRun(os.Stdout, res, sp)
				last = res
			}
		}
	}
	if err := doc.write(filepath.Join(outDir, "result.json")); err != nil {
		return 1, err
	}
	code := 0
	if *aa && !compareSets(os.Stdout, doc.Runs, sp) {
		code = 1
	}
	failed := 0
	for _, r := range doc.Runs {
		failed += r.Failed
	}
	if failed > 0 {
		code = 1
		fmt.Fprintf(os.Stderr, "bench: %d operations failed their check\n", failed)
	}
	// The driver's contract: one run, its JSON object on the last line, and
	// exit code 0 — a failed check is reported in the object, not the code.
	if len(doc.Runs) == 1 {
		code = 0
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]work.Metric `json:"metrics"`
		}{last.Failed == 0, last.Attempted, last.Failed, contractMetrics(last.Metrics)})
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
	}
	return code, nil
}

// contractMetrics strips the sample counts: the driver's result object
// carries exactly a value and a unit per metric.
func contractMetrics(in map[string]work.Metric) map[string]work.Metric {
	out := make(map[string]work.Metric, len(in))
	for name, m := range in {
		out[name] = work.Metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// conform makes a run report exactly the metrics BENCHMARK.json lists for
// its pass: a listed layer metric the workload never exercised reads 0 (the
// layer did no work there), an unlisted one is an error in the harness.
func conform(res *runResult, sp spec) {
	listed := sp.EndToEnd
	if res.Pass == "per_layer" {
		listed = sp.PerLayer
	}
	known := map[string]bool{}
	for _, ms := range listed {
		known[ms.Name] = true
		m, ok := res.Metrics[ms.Name]
		if !ok && res.Pass == "end_to_end" {
			res.Failed++
			res.Failures = append(res.Failures, "end-to-end metric not measured: "+ms.Name)
		}
		m.Unit = ms.Unit // the file's units are the units
		res.Metrics[ms.Name] = m
	}
	for name := range res.Metrics {
		if !known[name] {
			res.Failed++
			res.Failures = append(res.Failures, "metric not listed in BENCHMARK.json: "+name)
			delete(res.Metrics, name)
		}
	}
}

// runWithDeadline bounds one run: a wedged server or client cannot hold the
// benchmark past set-up + load + restarts by more than a wide margin.
func runWithDeadline(ctx context.Context, cfg runConfig) (*runResult, error) {
	limit := time.Duration(cfg.seconds)*time.Second + 100*time.Second
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	// The context stops the load loop and the readiness polls; the timer
	// covers anything that does not watch it.
	watchdog := time.AfterFunc(limit+20*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %s deadline\n", cfg.workload, limit)
		cleanupAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	return run(ctx, cfg)
}

// findRoot locates the checkout: the nearest ancestor of the working
// directory that holds cmd/factorlogd and BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "factorlogd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout found: need cmd/factorlogd and BENCHMARK.json in an ancestor of the working directory")
		}
		dir = parent
	}
}

// build compiles factorlogd from the checkout and the layer pass from this
// module into out/bin. The go command's own cache makes the second call
// cheap; building here (not with go run's implicit build) keeps set-up time
// free of compilation.
func build(ctx context.Context, root, outDir string) (binaries, error) {
	bin := filepath.Join(outDir, "bin")
	b := binaries{factorlogd: filepath.Join(bin, "factorlogd"), layerpass: filepath.Join(bin, "layerpass")}
	for _, step := range []struct{ dir, out, pkg string }{
		{root, b.factorlogd, "./cmd/factorlogd"},
		{filepath.Join(root, "bench"), b.layerpass, "./layerpass"},
	} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", step.out, step.pkg)
		cmd.Dir = step.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return b, fmt.Errorf("go build %s: %w\n%s", step.pkg, err, out)
		}
	}
	return b, nil
}

// runTool runs one of the built binaries with input on stdin and returns its
// stdout; stderr goes to a file under out/.
func runTool(ctx context.Context, bin string, input []byte, stderrPath string) ([]byte, error) {
	logf, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.CommandContext(ctx, bin)
	cmd.Stdin = strings.NewReader(string(input))
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w (see %s)", filepath.Base(bin), err, stderrPath)
	}
	return out, nil
}
