// Genealogy: same-generation cousins — the canonical recursion that does
// NOT factor (the paper's closing remark of Section 6.4). The example shows
// the honest failure path of the library: the class tests reject the
// program with a reason, the randomized refuter produces a concrete
// counterexample EDB, and Magic Sets alone still prunes the computation.
//
// Run with: go run ./examples/genealogy
package main

import (
	"fmt"
	"log"

	"factorlog"
)

func main() {
	sys, err := factorlog.Load(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
		?- sg(alice, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// The class tests reject sg, with the reasons per theorem.
	if _, err := sys.Classify(); err != nil {
		fmt.Println("factoring rejected:")
		fmt.Println(" ", err)
	}

	// A small dynasty: three generations under two founders.
	load := func() *factorlog.DB {
		db := sys.NewDB()
		parent := map[string]string{
			"bob": "adam", "carol": "adam",
			"dave": "eve", "erin": "eve",
			"alice": "bob", "frank": "carol", "grace": "dave", "heidi": "erin",
			"ivan": "alice", "judy": "frank", "ken": "grace", "leo": "heidi",
		}
		for child, p := range parent {
			db.Fact("up", child, p)
			db.Fact("down", p, child)
		}
		db.Fact("flat", "adam", "eve")
		db.Fact("flat", "eve", "adam")
		return db
	}

	strategies := []factorlog.Strategy{factorlog.SemiNaive, factorlog.Magic, factorlog.FactoredOptimized}
	results, skipped, err := sys.Compare(strategies, load)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-14s %10s %12s %10s\n", "strategy", "answers", "inferences", "facts")
	for _, r := range results {
		fmt.Printf("%-14s %10d %12d %10d\n", r.Strategy, len(r.Answers), r.Inferences, r.Facts)
	}
	for _, s := range strategies {
		if why, ok := skipped[s]; ok {
			fmt.Printf("%-14s unavailable: %v\n", s, why)
		}
	}

	res, err := sys.Run(factorlog.Magic, load())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalice's generation: %v\n", res.Answers)
}
