package main

import (
	"os"
	"strings"
	"testing"

	"factorlog/internal/experiments"
)

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
	var out strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return out.String(), runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E2", "E7", "E12"} {
		if !strings.Contains(out, id+" ") && !strings.Contains(out, id+"  ") {
			t.Errorf("missing %s in list:\n%s", id, out)
		}
	}
}

func TestRunSingle(t *testing.T) {
	out, err := capture(t, "-run", "E4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "symmetric") {
		t.Errorf("E4 output:\n%s", out)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := capture(t, "-run", "E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunAll is the default invocation: every experiment of the catalogue
// (E1…E15 plus E1b) renders its table without error.
func TestRunAll(t *testing.T) {
	out, err := capture(t)
	if err != nil {
		t.Fatal(err)
	}
	all := experiments.All()
	if len(all) != 16 {
		t.Errorf("catalogue has %d experiments, want 16", len(all))
	}
	for _, e := range all {
		if !strings.Contains(out, "== "+e.ID+": ") {
			t.Errorf("default run did not render %s", e.ID)
		}
	}
}
