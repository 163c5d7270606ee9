// Quickstart: the paper's running example (Examples 1.1 / 4.2 / 5.3).
//
// The three-rule transitive closure is loaded with a single-source query;
// the program is classified (selection-pushing), transformed (Magic Sets,
// factoring, Section-5 clean-up) and evaluated, and every strategy's cost
// is compared on a random graph.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"factorlog"
)

func main() {
	sys, err := factorlog.Load(`
		t(X, Y) :- t(X, W), t(W, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- t(X, W), e(W, Y).
		t(X, Y) :- e(X, Y).
		?- t(5, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}

	class, err := sys.Classify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("factorable:", class)

	// The final program of Example 5.3: a unary recursion.
	ex, err := sys.Explain(factorlog.FactoredOptimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noptimized program:")
	fmt.Print(ex.Program)

	// A random graph: 300 nodes, 600 edges.
	load := func() *factorlog.DB {
		db := sys.NewDB()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 600; i++ {
			db.Fact("e", fmt.Sprint(r.Intn(300)), fmt.Sprint(r.Intn(300)))
		}
		return db
	}

	fmt.Println("\nstrategy comparison (300 nodes, 600 random edges):")
	strategies := factorlog.AllStrategies()
	results, skipped, err := sys.Compare(strategies, load)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %10s %12s %10s %8s\n", "strategy", "answers", "inferences", "facts", "arity")
	for _, r := range results {
		fmt.Printf("%-14s %10d %12d %10d %8d\n",
			r.Strategy, len(r.Answers), r.Inferences, r.Facts, r.MaxIDBArity)
	}
	for _, s := range strategies {
		if why, ok := skipped[s]; ok {
			fmt.Printf("%-14s unavailable: %v\n", s, why)
		}
	}
}
