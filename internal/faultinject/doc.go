// Package faultinject is a deterministic, seed-driven fault-injection
// harness for the engine's failure paths. Call sites name a Point and call
// Hit at the moment the corresponding failure could occur; when the harness
// is armed (Enable) and the point's schedule says so, Hit panics with a
// *Fault, which the engine's panic-isolation barriers convert to a typed
// engine.ErrInternal. When the harness is disarmed — the production state —
// Hit is a single atomic load and a predicted branch, cheap enough to leave
// in hot paths (see BenchmarkHitDisabled).
//
// Schedules are deterministic: Enable derives a per-point firing period
// from Config.Seed with splitmix64, and each point fires on every Nth pass
// through it, counted with an atomic counter shared by all goroutines. Two
// runs that make the same sequence of Hit calls fire the same faults; under
// concurrency the set of firing call-counts is still fixed by the seed even
// though which goroutine draws the firing count is not.
//
// The point catalog covers storage (ArenaGrow, IndexProbe), parallel
// evaluation (WorkerStart), plan compilation (PlanCompile), cancellation
// (ContextCheck), the mutation path (FactsApply, DeltaWave, MatRefresh) —
// which prove that a fault mid-batch rolls the base EDB back, leaves the
// epoch unchanged, and costs at most a materialization rebuild, never wrong
// answers — and the
// durability path (WalAppend, WalFsync, SnapshotWrite, Replay), which
// proves that exactly the acknowledged prefix of mutation batches survives
// a crash. See docs/RESILIENCE.md for the catalog and the chaos suites
// that arm it.
package faultinject
