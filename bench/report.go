package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"

	"factorlog/bench/work"
)

// document is the frozen output schema factorlog/bench/v1, written to
// out/result.json: where and how the numbers were taken, and every run made.
type document struct {
	Schema      string       `json:"schema"`
	Environment environment  `json:"environment"`
	Runs        []*runResult `json:"runs"`
}

type environment struct {
	NProc      int        `json:"nproc"`
	GoMaxProcs int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	OS         string     `json:"os"`
	Kernel     string     `json:"kernel"`
	GitCommit  string     `json:"git_commit"` // "unknown" outside a git checkout
	GitDirty   bool       `json:"git_dirty"`
	Seed       int64      `json:"seed"`
	RunSeconds int        `json:"run_seconds"`
	Conns      int        `json:"connections"`
	Smoke      bool       `json:"smoke"`
	Sizes      work.Sizes `json:"edb_sizes"`
}

func newDocument(root string, seed int64, seconds int, smoke bool) *document {
	env := environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Kernel: "unknown", GitCommit: "unknown",
		Seed: seed, RunSeconds: seconds, Conns: work.Conns, Smoke: smoke, Sizes: work.Full,
	}
	if smoke {
		env.Sizes = work.Smoke
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		env.GitCommit = commit
		if status, err := git("status", "--porcelain"); err == nil {
			env.GitDirty = status != ""
		}
	}
	return &document{Schema: "factorlog/bench/v1", Environment: env}
}

func (d *document) write(path string) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printRun prints one run as a "name unit value" table, in BENCHMARK.json's
// order, sample counts beside the percentiles.
func printRun(w io.Writer, res *runResult, sp spec) {
	fmt.Fprintf(w, "\n== %s  %s  seed %d  measured %.1f s  attempted %d  failed %d\n",
		res.Workload, res.Pass, res.Seed, res.MeasuredS, res.Attempted, res.Failed)
	fmt.Fprintf(w, "   factorlogd %s\n", strings.Join(res.Flags, " "))
	fmt.Fprintf(w, "   machine spin before/after the load: %.1f / %.1f ms\n", res.SpinMS[0], res.SpinMS[1])
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	listed := sp.EndToEnd
	if res.Pass == "per_layer" {
		listed = sp.PerLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, ms := range listed {
		m := res.Metrics[ms.Name]
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", ms.Name, m.Unit, m.Value, n)
	}
	tw.Flush()
}

// compareSets prints, for every end-to-end metric × workload, the value from
// each of the two sets of runs, their relative difference and the bound, and
// reports whether all of them stayed within bounds. The difference is signed
// so that positive means the second run was worse.
func compareSets(w io.Writer, runs []*runResult, sp spec) bool {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	for _, r := range runs {
		if r.Pass != "end_to_end" {
			continue
		}
		for name, m := range r.Metrics {
			k := key{r.Workload, name}
			values[k] = append(values[k], m.Value)
		}
	}
	ok := true
	fmt.Fprintln(w, "\n== A/A: the same code, run twice")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t")
	for _, wl := range work.Names {
		for _, ms := range sp.EndToEnd {
			v := values[key{wl, ms.Name}]
			if len(v) != 2 {
				continue
			}
			worse := (v[1] - v[0]) / v[0]
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > ms.Bound {
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wl, ms.Name, v[0], v[1], 100*worse, 100*ms.Bound, verdict)
		}
	}
	tw.Flush()
	return ok
}
