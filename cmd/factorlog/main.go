// Command factorlog parses a Datalog file containing rules, optional ground
// facts, and one ?- query, and runs the paper's transformation pipeline on
// it.
//
// Usage:
//
//	factorlog run      [-strategy S] [-constraints file] [-edb file] [-budget N] [-workers N] [-stream] [-profile] [-explain] file.dl
//	factorlog compare  [-constraints file] [-edb file] [-budget N] file.dl
//	factorlog explain  [-strategy S] [-constraints file] file.dl
//	factorlog classify [-constraints file] file.dl
//	factorlog prove    [-edb file] file.dl     # derivation trees per answer
//	factorlog repl                             # interactive session
//
// The REPL additionally supports live fact mutation with :assert and
// :retract (each effective mutation advances a session epoch, mirroring
// factorlogd's POST /facts — see docs/INCREMENTAL.md).
//
// Strategies: `factorlog run -h` lists the names (the one table is
// internal/pipeline/strategy.go). "auto" defers the choice to the
// adaptive optimizer: the EDB's statistics are snapshotted, every eligible
// fixed strategy is priced by the cost model, and the winner runs (see
// docs/PLANNER.md); `run -explain -strategy auto` prints the candidate
// table.
//
// Example:
//
//	$ factorlog explain -strategy factored+opt testdata/tc3.dl
//	% class: selection-pushing
//	m_t_bf(W) :- ft(W).
//	m_t_bf(5).
//	ft(Y) :- m_t_bf(X), e(X,Y).
//	query(Y) :- ft(Y).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"factorlog"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "factorlog:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return usageError()
	}
	cmd, rest := args[0], args[1:]

	if cmd == "repl" {
		return repl(os.Stdin, os.Stdout)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	strategyName := fs.String("strategy", "factored+opt",
		fmt.Sprintf("evaluation strategy, one of %v", append(factorlog.AllStrategies(), factorlog.Auto)))
	constraintsFile := fs.String("constraints", "", "file of full-TGD EDB constraints")
	edbFile := fs.String("edb", "", "file of additional ground facts")
	budget := fs.Int("budget", 0, "max derived facts (0 = unlimited)")
	workers := fs.Int("workers", 1, "evaluation workers (>1 = parallel stratified semi-naive)")
	profile := fs.Bool("profile", false, "run: print the span tree and the per-rule counter table")
	streaming := fs.Bool("stream", false, "run: evaluate stratum by stratum, non-recursive strata in one pass")
	explainRun := fs.Bool("explain", false, "run: EXPLAIN ANALYZE — print the plan description and the measured span tree")
	anon := fs.Bool("anon", false, "explain: print singleton variables as '_' (paper style)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError()
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *edbFile != "" {
		extra, err := os.ReadFile(*edbFile)
		if err != nil {
			return err
		}
		src = append(append(src, '\n'), extra...)
	}
	sys, err := factorlog.Load(string(src))
	if err != nil {
		return err
	}
	if *constraintsFile != "" {
		csrc, err := os.ReadFile(*constraintsFile)
		if err != nil {
			return err
		}
		if _, err := sys.WithConstraints(string(csrc)); err != nil {
			return err
		}
	}
	if *budget > 0 {
		sys.WithBudget(0, *budget)
	}
	sys.WithWorkers(*workers)
	sys.WithStreaming(*streaming)

	switch cmd {
	case "run":
		s, err := factorlog.ParseStrategy(*strategyName)
		if err != nil {
			return err
		}
		sys.WithTrace(*profile || *explainRun)
		if *explainRun {
			info, err := sys.Plan(s)
			if err != nil {
				return err
			}
			fmt.Print(info.Text())
			fmt.Println()
		}
		res, err := sys.Run(s, sys.NewDB())
		if err != nil {
			return err
		}
		if res.AutoPicked {
			fmt.Printf("auto picked %s\n", res.Strategy)
		}
		fmt.Println(factorlog.FormatResult(res))
		// -profile's rendering already holds the tree -explain would print.
		switch {
		case *profile:
			fmt.Println()
			fmt.Print(res.Profile())
		case *explainRun:
			fmt.Println()
			fmt.Print(res.Trace.Profile())
		}
		return nil

	case "compare":
		strategies := factorlog.AllStrategies()
		results, skipped, err := sys.Compare(strategies, sys.NewDB)
		if err != nil {
			return err
		}
		fmt.Print(factorlog.FormatTable(results))
		for _, s := range strategies {
			if err, ok := skipped[s]; ok {
				fmt.Printf("%s unavailable: %v\n", s, err)
			}
		}
		return nil

	case "explain":
		s, err := factorlog.ParseStrategy(*strategyName)
		if err != nil {
			return err
		}
		ex, err := sys.Explain(s)
		if err != nil {
			return err
		}
		if ex.Class != "" {
			fmt.Printf("%% class: %s\n", ex.Class)
		}
		for _, r := range ex.Reduced {
			fmt.Printf("%% %s\n", r)
		}
		prog := ex.Program
		if *anon {
			parsed, err := parser.ParseProgram(prog)
			if err == nil {
				prog = parsed.AnonymizeSingletons().String()
			}
		}
		fmt.Print(prog)
		if len(ex.Trace) > 0 {
			fmt.Println("\n% optimization trace:")
			for _, t := range ex.Trace {
				fmt.Println("%  ", t)
			}
		}
		return nil

	case "prove":
		out, err := proveAnswers(sys)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil

	case "classify":
		class, err := sys.Classify()
		if err != nil {
			fmt.Println("not factorable:", err)
			return nil
		}
		fmt.Println("factorable:", class)
		return nil

	default:
		return usageError()
	}
}

// proveAnswers evaluates the query bottom-up with provenance enabled and
// renders one derivation tree (Definition 2.1 of the paper) per answer.
func proveAnswers(sys *factorlog.System) (string, error) {
	db := sys.NewDB().Engine()
	res, err := engine.Eval(sys.Program(), db, engine.Options{Provenance: true})
	if err != nil {
		return "", err
	}
	tuples, err := engine.Answers(db, sys.Query())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if len(tuples) == 0 {
		b.WriteString("no answers\n")
		return b.String(), nil
	}
	for _, tuple := range tuples {
		id, ok := res.Prov.Lookup(sys.Query().Pred, tuple)
		if !ok {
			fmt.Fprintf(&b, "%s%s: no derivation recorded\n",
				sys.Query().Pred, db.Store.TupleString(tuple))
			continue
		}
		if err := res.Prov.Verify(db.Store, id); err != nil {
			return "", fmt.Errorf("derivation verification failed: %w", err)
		}
		b.WriteString(res.Prov.RenderTree(db.Store, id))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func usageError() error {
	return fmt.Errorf("usage: factorlog {run|compare|explain|classify|prove|repl} [-strategy S] [-constraints file] [-edb file] [-budget N] [-workers N] [-profile] file.dl")
}
