package pipeline

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestStageSpansRecorded(t *testing.T) {
	pl := tcPipeline()
	r, err := pl.Run(FactoredOptimized, chain(8)(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stages := pl.stagesFor(FactoredOptimized)
	var names []string
	for _, st := range stages {
		names = append(names, st.Name)
	}
	want := []string{"adorn", "magic", "factor", "optimize"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stage chain = %v, want %v", names, want)
	}
	for _, st := range stages {
		if st.Wall < 0 {
			t.Errorf("%s: negative wall time", st.Name)
		}
		if st.Err != "" {
			t.Errorf("%s: unexpected error %q", st.Name, st.Err)
		}
	}
	// Magic grows the program; the optimize clean-up shrinks arity to the
	// paper's unary program.
	magic := stages[1]
	if magic.RulesAfter <= magic.RulesBefore {
		t.Errorf("magic rules %d -> %d, want growth", magic.RulesBefore, magic.RulesAfter)
	}
	opt := stages[3]
	if opt.ArityAfter != 1 || r.MaxIDBArity != 1 {
		t.Errorf("optimize arity after = %d, run arity = %d, want 1", opt.ArityAfter, r.MaxIDBArity)
	}
	if r.EvalWall <= 0 {
		t.Error("EvalWall not recorded")
	}
}

func TestStageSpansSelectPerStrategy(t *testing.T) {
	pl := tcPipeline()
	load := chain(8)
	// Run FactoredOptimized first so the pipeline caches every stage, then
	// check a Magic run only replays its own chain.
	if _, err := pl.Run(FactoredOptimized, load(), engine.Options{}); err != nil {
		t.Fatal(err)
	}
	tc := trace.New(trace.NewID())
	if _, err := pl.Run(Magic, load(), engine.Options{Span: tc.Root()}); err != nil {
		t.Fatal(err)
	}
	tc.Finish()
	var names []string
	for _, sp := range tc.Root().Children() {
		names = append(names, sp.Name)
	}
	if strings.Join(names, ",") != "adorn,magic,eval" {
		t.Errorf("magic span chain = %v", names)
	}
	// Cached stages appear exactly once in the pipeline's record.
	seen := map[string]int{}
	for _, st := range pl.stageRecords() {
		seen[st.Name]++
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("stage %s recorded %d times", name, n)
		}
	}
}

func TestRunWithTraceAttachesRuleAndRoundStats(t *testing.T) {
	pl := tcPipeline()
	tc := trace.New(trace.NewID())
	r, err := pl.Run(FactoredOptimized, chain(8)(), engine.Options{Span: tc.Root()})
	if err != nil {
		t.Fatal(err)
	}
	tc.Finish()
	if len(r.Rules) != len(r.Program.Rules) {
		t.Fatalf("Rules = %d, program has %d rules", len(r.Rules), len(r.Program.Rules))
	}
	if rounds := spansNamed(tc, "round"); len(rounds) != r.Iterations {
		t.Errorf("round spans = %d, Iterations = %d", len(rounds), r.Iterations)
	}
	// The eval span carries the evaluation's heap delta.
	if eval := spansNamed(tc, "eval"); len(eval) != 1 || eval[0].Allocs == 0 {
		t.Errorf("eval span missing or without allocs: %d spans", len(eval))
	}
	out := ProfileTable(r, tc)
	for _, want := range []string{"strategy: factored+opt", "adorn", "(cached)", "arity 2→1", "eval", "round 0", "rule #", "firings"} {
		if !strings.Contains(out, want) {
			t.Errorf("ProfileTable missing %q:\n%s", want, out)
		}
	}
	// The tree comes before the counter table.
	if strings.Index(out, "eval") > strings.Index(out, "firings") {
		t.Errorf("rule table precedes the span tree:\n%s", out)
	}
	// Untraced runs keep only the summary lines: no tree, no counter table.
	r2, err := tcPipeline().Run(Magic, chain(8)(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out2 := ProfileTable(r2, nil)
	if strings.Contains(out2, "firings") || strings.Contains(out2, "trace ") {
		t.Errorf("untraced profile has a tree or rule table:\n%s", out2)
	}
}

// TestSpanTreeMatchesRuleCounters holds the span tree to the exact counters
// on every evaluator: sequential, parallel, streamed and streamed with
// parallel fixpoints. Under the span cap, each rule's spans sum to its
// Stats.Rules probes and derivations, and the round spans to the facts the
// run derived. The second program puts a streamable stratum before the
// recursive one, so a delegated fixpoint's rule spans must be renumbered
// from subprogram to program rule indexes.
func TestSpanTreeMatchesRuleCounters(t *testing.T) {
	layered := New(parser.MustParseProgram(`
		edge(X, Y) :- e(X, Y).
		t(X, Y) :- edge(X, Y).
		t(X, Y) :- t(X, W), edge(W, Y).
	`), parser.MustParseAtom("t(1, Y)"))
	modes := []struct {
		name string
		opts engine.Options
	}{
		{"sequential", engine.Options{}},
		{"parallel", engine.Options{Workers: 3}},
		{"stream", engine.Options{Streaming: engine.StreamAuto}},
		{"stream+parallel", engine.Options{Streaming: engine.StreamAuto, Workers: 3}},
	}
	for _, pl := range []*Pipeline{tcPipeline(), layered} {
		for _, s := range []Strategy{SemiNaive, Magic, SupplementaryMagic, FactoredOptimized} {
			if pl.Compile(s) != nil {
				continue // factoring needs a unit program
			}
			for _, m := range modes {
				checkSpanTree(t, pl, s, m.name, m.opts)
			}
		}
	}
}

func checkSpanTree(t *testing.T, pl *Pipeline, s Strategy, mode string, opts engine.Options) {
	t.Helper()
	tc := trace.New(trace.NewID())
	opts.Span = tc.Root()
	r, err := pl.Run(s, chain(12)(), opts)
	if err != nil {
		t.Fatalf("%s %s/%s: %v", pl.Query, s, mode, err)
	}
	tc.Finish()
	if tc.Dropped() > 0 {
		t.Fatalf("%s %s/%s: %d spans dropped; the check needs the whole tree", pl.Query, s, mode, tc.Dropped())
	}
	in := make([]int64, len(r.Rules))
	out := make([]int64, len(r.Rules))
	for _, sp := range spansNamed(tc, "rule") {
		in[sp.Rule] += sp.TuplesIn
		out[sp.Rule] += sp.TuplesOut
	}
	for i, rs := range r.Rules {
		if in[i] != int64(rs.JoinProbes) || out[i] != int64(rs.TuplesDerived) {
			t.Errorf("%s %s/%s rule %d: spans in %d out %d, counters probes %d derived %d",
				pl.Query, s, mode, i, in[i], out[i], rs.JoinProbes, rs.TuplesDerived)
		}
	}
	var derived int64
	for _, sp := range spansNamed(tc, "round") {
		derived += sp.TuplesOut
	}
	if derived != int64(r.Facts) {
		t.Errorf("%s %s/%s: round spans out %d, Facts %d", pl.Query, s, mode, derived, r.Facts)
	}
}

// stageRecords returns the pipeline's stage log, in run order.
func (pl *Pipeline) stageRecords() []stageRecord {
	if pl.tmpl != nil {
		return pl.tmpl.stageRecords()
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]stageRecord(nil), pl.stageLog...)
}

// spansNamed lists a finished trace's spans called name, in tree order.
func spansNamed(tc *trace.Context, name string) []*trace.Span {
	var out []*trace.Span
	tc.Root().Walk(func(s *trace.Span) {
		if s.Name == name {
			out = append(out, s)
		}
	})
	return out
}

// TestTableGolden locks the Table layout, including the cases the old
// fixed-width formatter broke on: strategy names longer than 14 characters
// and counts wider than their columns.
func TestTableGolden(t *testing.T) {
	results := []*RunResult{
		{Strategy: SemiNaive, Answers: map[string]bool{"(1)": true, "(2)": true},
			Inferences: 123456789012345, Facts: 987654321, Iterations: 42, MaxIDBArity: 2},
		{Strategy: SupplementaryMagic, Answers: map[string]bool{"(1)": true},
			Inferences: 7, Facts: 3, Iterations: 2, MaxIDBArity: 4},
		{Strategy: Strategy(1234567890), Answers: map[string]bool{},
			Inferences: 1, Facts: 1, Iterations: 1, MaxIDBArity: 1},
	}
	got := Table(results)
	golden := filepath.Join("testdata", "table.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Table output drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
