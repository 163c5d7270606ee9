package pipeline

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// TestStrategyTable pins everything the surfaces derive from the strategy
// table: names and their parser, the two listings whose order is behaviour
// (E1's rows, the planner's tie-break), the materializable set, and each
// strategy's stage chain as EXPLAIN reports it.
func TestStrategyTable(t *testing.T) {
	if got, want := AllStrategies(), []Strategy{Naive, SemiNaive, TopDown, Tabled, Magic,
		SupplementaryMagic, Factored, FactoredOptimized, Counting}; !reflect.DeepEqual(got, want) {
		t.Errorf("AllStrategies() = %v, want %v", got, want)
	}
	if got, want := AutoCandidateStrategies(), []Strategy{FactoredOptimized, Factored, Magic,
		SupplementaryMagic, Counting, SemiNaive}; !reflect.DeepEqual(got, want) {
		t.Errorf("AutoCandidateStrategies() = %v, want %v", got, want)
	}
	_, err := ParseStrategy("bogus")
	const wantErr = `unknown strategy "bogus" (one of: naive, semi-naive, top-down, tabled, magic, sup-magic, factored, factored+opt, counting, auto)`
	if err == nil || err.Error() != wantErr {
		t.Errorf("ParseStrategy(bogus) error = %v, want %s", err, wantErr)
	}
	if got := Strategy(len(strategies)).String(); got != "Strategy(10)" {
		t.Errorf("out-of-table String() = %q", got)
	}

	// Right-linear TC with a bound query: every rewrite, Counting included,
	// applies, so every chain can be forced and explained.
	chains := map[Strategy][]string{
		Magic:              {"adorn", "magic"},
		SupplementaryMagic: {"adorn", "sup-magic"},
		Factored:           {"adorn", "magic", "factor"},
		FactoredOptimized:  {"adorn", "magic", "factor", "optimize"},
		Counting:           {"adorn", "counting"},
	}
	pl := New(parser.MustParseProgram(chainTCSrc), parser.MustParseAtom("tc(1, Y)"))
	for s := Naive; s <= Auto; s++ {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
		row := s.row()
		for i, id := range row.chain {
			want := sourceProgram
			if i > 0 {
				want = row.chain[i-1]
			}
			if stages[id].input != want {
				t.Errorf("%s: chain stage %s consumes stage %d, the chain says %d", s, stages[id].name, stages[id].input, want)
			}
		}
		_, _, _, err := pl.MaterializedProgram(s)
		noProgram := err != nil && strings.Contains(err.Error(), "has no materialized program")
		if MaterializableStrategy(s) == noProgram {
			t.Errorf("%s: MaterializableStrategy = %v but MaterializedProgram err = %v", s, MaterializableStrategy(s), err)
		}
		if s == Auto {
			if err := pl.Compile(s); err == nil {
				t.Error("Compile(Auto) succeeded; Auto is resolved per run")
			}
			continue
		}
		info, err := pl.Explain(s)
		if err != nil {
			t.Errorf("Explain(%s): %v", s, err)
			continue
		}
		var names []string
		for _, sp := range info.Stages {
			names = append(names, sp.Name)
		}
		if !reflect.DeepEqual(names, chains[s]) {
			t.Errorf("Explain(%s) stages = %v, want %v", s, names, chains[s])
		}
	}
}

// TestStagesRunOncePerPipeline hammers one Pipeline from several goroutines:
// each rewrite stage runs exactly once, a failed stage stays failed, and a
// stage whose rewrite panics is left unmemoized so the next caller re-runs it
// (the plan cache's recover barrier relies on that to forget the compile).
func TestStagesRunOncePerPipeline(t *testing.T) {
	pl := tcPipeline()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range AllStrategies() {
				compileErr := pl.Compile(s)
				_, runErr := pl.Run(s, chain(8)(), engine.Options{})
				// Counting rejects TC3's combined rule; SLD dives past its
				// depth budget on the left recursion. Nothing else may fail.
				if (compileErr != nil) != (s == Counting) || (runErr != nil) != (s == Counting || s == TopDown) {
					t.Errorf("%s: compile err %v, run err %v", s, compileErr, runErr)
				}
			}
		}()
	}
	wg.Wait()

	ran := map[string]int{}
	for _, sp := range pl.stageRecords() {
		ran[sp.Name]++
		if (sp.Err != "") != (sp.Name == "counting") {
			t.Errorf("span %s: err %q", sp.Name, sp.Err)
		}
	}
	for _, def := range stages {
		if ran[def.name] != 1 {
			t.Errorf("stage %s ran %d times, want 1", def.name, ran[def.name])
		}
	}
	if len(ran) != len(stages) {
		t.Errorf("spans name %d stages, the table has %d: %v", len(ran), len(stages), ran)
	}
	_, err1 := pl.CountingProgram()
	_, err2 := pl.CountingProgram()
	if err1 == nil || err1 != err2 {
		t.Errorf("failed stage not memoized with its error: %v then %v", err1, err2)
	}

	// A rewrite that panics once. faultinject.PlanCompile cannot reach this:
	// it fires in buildPlan, before any stage starts.
	magicRewrite := stages[magicStage].rewrite
	defer func() { stages[magicStage].rewrite = magicRewrite }()
	calls := 0
	stages[magicStage].rewrite = func(pl *Pipeline) (rewritten, error) {
		if calls++; calls == 1 {
			panic("injected rewrite panic")
		}
		return magicRewrite(pl)
	}
	pl = tcPipeline()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panicking rewrite did not panic through MagicProgram")
			}
		}()
		pl.MagicProgram()
	}()
	if _, err := pl.MagicProgram(); err != nil || calls != 2 {
		t.Fatalf("after the panic: err %v, rewrite called %d times, want nil and 2", err, calls)
	}
	if _, err := pl.MagicProgram(); err != nil || calls != 2 {
		t.Errorf("memoized call: err %v, rewrite called %d times, want nil and 2", err, calls)
	}
	var names []string
	for _, sp := range pl.stageRecords() {
		names = append(names, sp.Name)
	}
	if want := []string{"adorn", "magic"}; !reflect.DeepEqual(names, want) {
		t.Errorf("spans after a panicked and a clean run = %v, want %v", names, want)
	}
}
