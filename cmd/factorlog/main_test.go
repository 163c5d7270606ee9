package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI with stdout captured.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), runErr
}

func testdata(name string) string { return filepath.Join("..", "..", "testdata", name) }

func TestCLIRun(t *testing.T) {
	out, err := capture(t, "run", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(6)", "(7)", "(8)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(2)") {
		t.Errorf("answer (2) should be pruned by the selection:\n%s", out)
	}
}

func TestCLIRunStream(t *testing.T) {
	// -stream routes the bottom-up evaluation through the streaming
	// executor; answers are identical and -profile shows what ran.
	out, err := capture(t, "run", "-stream", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(6)", "(7)", "(8)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in -stream output:\n%s", want, out)
		}
	}
	out, err = capture(t, "run", "-stream", "-profile", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"executor: stream", "strata streamed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -stream -profile output:\n%s", want, out)
		}
	}
}

func TestCLIProfile(t *testing.T) {
	out, err := capture(t, "run", "-profile", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	// One span tree — the cached stages of the full factored chain with
	// factoring's arity drop, then eval with its rounds and rule passes —
	// followed by the per-rule counter table.
	for _, want := range []string{
		"trace q-", "adorn", "magic", "factor", "optimize", "(cached)",
		"arity 2→1", "eval", "round 0", "rule #", "firings", "probes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in profile output:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "trace q-"); n != 1 {
		t.Errorf("profile prints %d span trees, want 1:\n%s", n, out)
	}
	if strings.Index(out, "round 0") > strings.Index(out, "firings") {
		t.Errorf("counter table precedes the span tree:\n%s", out)
	}
	// Parallel runs show their strata and workers in the same tree.
	out, err = capture(t, "run", "-profile", "-workers", "2", "-strategy", "magic", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stratum 0", "worker 1", "units", "firings"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -workers 2 profile output:\n%s", want, out)
		}
	}
	// Without -profile no tables appear.
	out, err = capture(t, "run", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "firings") {
		t.Errorf("profile output without -profile:\n%s", out)
	}
}

func TestCLIProfileExample44(t *testing.T) {
	// The acceptance workload: the span tree plus the rule table on the
	// paper's symmetric Example 4.4 (needs its EDB constraints to factor).
	out, err := capture(t, "run", "-profile",
		"-constraints", testdata("example44_constraints.dl"), testdata("example44.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace q-", "factor", "firings", "round"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in example44 profile:\n%s", want, out)
		}
	}
}

func TestCLICompare(t *testing.T) {
	out, err := capture(t, "compare", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"semi-naive", "magic", "factored+opt", "unavailable"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCLIExplain(t *testing.T) {
	out, err := capture(t, "explain", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "class: selection-pushing") {
		t.Errorf("missing class:\n%s", out)
	}
	if !strings.Contains(out, "ft(Y) :- m_t_bf(X), e(X,Y).") {
		t.Errorf("missing final rule:\n%s", out)
	}
	if !strings.Contains(out, "optimization trace") {
		t.Errorf("missing trace:\n%s", out)
	}
}

func TestCLIClassify(t *testing.T) {
	out, err := capture(t, "classify", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "factorable: selection-pushing") {
		t.Errorf("output:\n%s", out)
	}
	out, err = capture(t, "classify", testdata("samegen.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not factorable") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIConstraints(t *testing.T) {
	out, err := capture(t, "classify", testdata("example44.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not factorable") {
		t.Errorf("without constraints:\n%s", out)
	}
	out, err = capture(t, "classify",
		"-constraints", testdata("example44_constraints.dl"), testdata("example44.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "factorable: symmetric") {
		t.Errorf("with constraints:\n%s", out)
	}
}

func TestCLIPmem(t *testing.T) {
	out, err := capture(t, "run", "-strategy", "factored+opt", testdata("pmem.dl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(x1)") || !strings.Contains(out, "(x3)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIExternalEDB(t *testing.T) {
	edb := filepath.Join(t.TempDir(), "facts.dl")
	if err := os.WriteFile(edb, []byte("e(8, 9).\ne(9, 10).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "run", "-strategy", "magic", "-edb", edb, testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(9)", "(10)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s with external EDB:\n%s", want, out)
		}
	}
	if _, err := capture(t, "run", "-edb", "/nonexistent.dl", testdata("tc3.dl")); err == nil {
		t.Error("missing EDB file accepted")
	}
}

func TestCLIProve(t *testing.T) {
	out, err := capture(t, "prove", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	// Every answer t(5,6), t(5,7), t(5,8) gets a tree; leaves are e facts.
	for _, want := range []string{"t(5,6)", "t(5,7)", "t(5,8)", "e(5,6)", "[rule"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in prove output:\n%s", want, out)
		}
	}
	// No answers case.
	dir := t.TempDir()
	f := filepath.Join(dir, "none.dl")
	if err := os.WriteFile(f, []byte("t(X,Y) :- e(X,Y).\n?- t(1,Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, "prove", f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no answers") {
		t.Errorf("prove on empty: %q", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if _, err := capture(t, "nonsense", testdata("tc3.dl")); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := capture(t); err == nil {
		t.Error("missing command accepted")
	}
	if _, err := capture(t, "run", "/nonexistent.dl"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := capture(t, "run", "-strategy", "warp", testdata("tc3.dl")); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := capture(t, "run"); err == nil {
		t.Error("missing file argument accepted")
	}
}

func TestCLIRunExplain(t *testing.T) {
	out, err := capture(t, "run", "-explain", "-strategy", "factored+opt", testdata("tc3.dl"))
	if err != nil {
		t.Fatal(err)
	}
	// EXPLAIN ANALYZE: the plan description (reductions, rules, strata)
	// followed by the answers and the measured span tree.
	for _, want := range []string{
		"plan factored+opt", "reductions applied", "magic sets",
		"stratum schedule:", "answers:", "trace q-", "eval", "round",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -explain output:\n%s", want, out)
		}
	}
}

// `factorlog compare` prints the skipped strategies after the table in the
// order it compared them, so repeated runs are identical byte for byte.
func TestCLICompareDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		out, err := capture(t, "compare", testdata("tc3.dl"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out
			td, cnt := strings.Index(out, "top-down unavailable"), strings.Index(out, "counting unavailable")
			if td < 0 || cnt < 0 || td > cnt {
				t.Fatalf("unavailable lines missing or out of strategy order:\n%s", out)
			}
		} else if out != first {
			t.Fatalf("run %d differs from the first:\n%s\n--- first ---\n%s", i+1, out, first)
		}
	}
}
