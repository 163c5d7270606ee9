// Command factorbench regenerates the reproduction experiments catalogued
// in EXPERIMENTS.md: every figure, worked example, and complexity claim of
// "Argument Reduction by Factoring".
//
// Usage:
//
//	factorbench                    # run every experiment
//	factorbench -run E2            # run one experiment
//	factorbench -list              # list experiment IDs and titles
//	factorbench -pprof-addr :6060  # serve net/http/pprof while running
//
// It prints the E1–E15 tables of internal/experiments and nothing else.
// Performance is measured by the benchmark in bench/ (see bench/README.md
// and BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"factorlog/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "factorbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("factorbench", flag.ContinueOnError)
	one := fs.String("run", "", "run a single experiment by ID (e.g. E2)")
	list := fs.Bool("list", false, "list experiments")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "factorbench: pprof on", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "factorbench: pprof:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *one != "" {
		e, ok := experiments.ByID(*one)
		if !ok {
			return fmt.Errorf("no experiment %q (try -list)", *one)
		}
		return runOne(e)
	}

	for _, e := range experiments.All() {
		if err := runOne(e); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println()
	}
	return nil
}

func runOne(e experiments.Experiment) error {
	tbl, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	return nil
}
