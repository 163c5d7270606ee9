// Package engine implements bottom-up evaluation of Horn-clause programs:
// a hash-consed ground-term store, indexed relations, naive and semi-naive
// fixpoint evaluation (sequential and parallel), derivation-tree
// provenance, and uniform statistics (facts, inferences, iterations).
//
// # Term store and relations
//
// Ground terms are interned into a Store: every distinct ground term has
// exactly one Val, and compound values share their sub-structure. Equality
// is integer comparison and a list tail is a single Val, which makes the
// structure-sharing assumption of Example 4.6 of the paper ("each inference
// can be made in constant time, independently of the list size") literally
// true during evaluation. Relations hold tuples of Vals stamped with their
// insertion round (the semi-naive delta discipline needs no copying) and
// build column-subset hash indexes on demand or up front from the
// compiler's declared index needs.
//
// # Evaluation
//
// Eval compiles a program's rules into join plans and runs them to the
// least fixpoint under Options: naive or semi-naive strategy, optional
// join reordering, exact per-rule counters (package obsv), a span tree of
// strata, rounds, rule passes and workers (package trace), and derivation
// provenance. Every evaluator runs rule bodies through one join,
// runner.join. By default the sequential evaluator runs one semi-naive
// fixpoint over the whole program; Options.Streaming = StreamAuto selects
// the stratified schedule instead, the strata of the predicate dependency
// condensation (package depgraph) in topological order, a non-recursive
// stratum in one pass and a recursive one as its own semi-naive fixpoint.
// With Options.Workers > 1 the program is always evaluated stratum by
// stratum, each stratum's rounds fanned out over a worker pool; see
// parallel.go for the full design.
//
// # Bounding evaluations
//
// Two mechanisms bound an evaluation. Options.MaxIterations and
// Options.MaxFacts cap the fixpoint's rounds and derived-fact count,
// surfacing as ErrBudgetExceeded. Options.Context carries a caller
// lifetime — a server request's deadline or a client disconnect — and
// surfaces as ErrCanceled or ErrDeadlineExceeded, observed at round
// boundaries, every few thousand inferences within a round, and (in
// parallel mode) by each worker mid-round. All three errors are wrapped
// sentinels; test with errors.Is.
package engine
