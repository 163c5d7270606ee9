// Package depgraph analyzes the predicate dependency graph of a program:
// which IDB predicates feed which rules. It condenses the graph into
// strongly connected components (Tarjan) and emits a topologically ordered
// stratum schedule, the backbone of stratified evaluation: rules in a
// non-recursive stratum run exactly once, rules in a recursive stratum run
// a local fixpoint, and no stratum starts before the strata it reads from
// are complete.
//
// The schedule is purely syntactic — it depends only on which predicates
// appear in rule heads and bodies — so it is computed once per compiled
// program and shared by every evaluation. The parallel evaluator
// (internal/engine, Options.Workers > 1) walks the schedule stratum by
// stratum, fanning each stratum's rounds out over its worker pool; the
// stratum spans it records (internal/trace) are indexed by the schedule
// order computed here.
package depgraph
