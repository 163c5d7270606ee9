// Package workload generates the extensional databases used by the
// experiments and in-process benchmarks: chains, cycles, balanced trees
// (for same generation), lists (for pmem), the multi-column chain data of
// the separable-recursion experiments, and the layered non-recursive join
// family that drives the streaming-executor differential tests
// (LayeredJoinProgram / LayeredJoins, with fanout as the join-selectivity
// knob). All generators are deterministic given their parameters, which is
// what lets the differential and chaos suites reproduce a failure from its
// printed arguments alone.
package workload
