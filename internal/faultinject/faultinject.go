package faultinject

import (
	"fmt"
	"sync/atomic"
)

// Point names an injection site. The catalog is small and stable — each
// point marks one class of failure the resilience layer must survive.
type Point uint8

const (
	// ArenaGrow fires when a relation's tuple arena is about to grow —
	// the moment a real allocation failure or corruption would surface in
	// storage (internal/engine.Relation.InsertRound).
	ArenaGrow Point = iota
	// WorkerStart fires as a parallel evaluation worker begins its unit
	// loop (internal/engine.runRound), exercising worker-panic degradation.
	WorkerStart
	// IndexProbe fires on a frozen index probe (internal/engine
	// Relation.probeFrozen), the parallel evaluator's hottest read path.
	IndexProbe
	// PlanCompile fires as the plan cache compiles a new plan
	// (internal/pipeline.PlanCache), exercising compile-failure handling
	// and the transient-error cache policy.
	PlanCompile
	// ContextCheck fires inside the engine's cancellation poll
	// (internal/engine.contextErr), the path every bounded evaluation
	// crosses at round boundaries.
	ContextCheck
	// FactsApply fires as a Materialization starts applying a mutation
	// batch (internal/engine.Materialization.Apply), before any state is
	// touched — exercising the poison-and-rebuild rollback path.
	FactsApply
	// DeltaWave fires at each incremental maintenance wave boundary
	// (internal/engine, insertion and deletion cascades), exercising a
	// panic with the materialization half-refreshed.
	DeltaWave
	// MatRefresh fires as the pipeline materialization registry refreshes
	// an entry to the current epoch (internal/pipeline.Materializer),
	// exercising refresh-failure handling on the serving path.
	MatRefresh
	// WalAppend fires as the write-ahead log appends a batch record
	// (internal/wal.Log.Append), before any bytes reach the file —
	// exercising the unacknowledged-batch rollback path.
	WalAppend
	// WalFsync fires as the write-ahead log fsyncs appended records
	// (internal/wal, group commit), after bytes are written but before
	// they are durable — exercising the truncate-the-unsynced-tail unwind.
	WalFsync
	// SnapshotWrite fires as a base snapshot is written
	// (internal/wal.Log.WriteSnapshot), exercising snapshot-failure
	// handling (the log remains authoritative; a failed snapshot must
	// never lose batches).
	SnapshotWrite
	// Replay fires per batch decoded during startup recovery
	// (internal/wal.Open), exercising crash-during-recovery handling.
	Replay

	// NumPoints is the number of named points; keep it last.
	NumPoints
)

var pointNames = [NumPoints]string{
	ArenaGrow:     "arena-grow",
	WorkerStart:   "worker-start",
	IndexProbe:    "index-probe",
	PlanCompile:   "plan-compile",
	ContextCheck:  "context-check",
	FactsApply:    "facts-apply",
	DeltaWave:     "delta-wave",
	MatRefresh:    "mat-refresh",
	WalAppend:     "wal-append",
	WalFsync:      "wal-fsync",
	SnapshotWrite: "snapshot-write",
	Replay:        "replay",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Fault is the value an armed injection point panics with. The engine's
// recover barriers detect it with errors.As after wrapping, or by type
// assertion on the recovered value.
type Fault struct {
	// Point is the site that fired.
	Point Point
	// Call is the 1-based Hit count at which the point fired.
	Call uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (call %d)", f.Point, f.Call)
}

// Config selects a deterministic schedule.
type Config struct {
	// Seed drives the per-point firing periods. The same seed always
	// produces the same schedule.
	Seed uint64
	// MaxPeriod bounds the derived firing periods: each armed point fires
	// every 1..MaxPeriod calls (seed-chosen). 0 defaults to 64. Smaller
	// values fire more often.
	MaxPeriod uint64
	// Points, when non-empty, arms only the listed points; empty arms all.
	Points []Point
}

// state is the armed schedule; swapped in/out atomically as one value so
// Hit never sees a half-built configuration.
type state struct {
	period [NumPoints]uint64 // 0 = point disarmed
	calls  [NumPoints]atomic.Uint64
	fired  [NumPoints]atomic.Uint64
}

// armed is non-nil exactly while the harness is enabled. enabled mirrors
// (armed != nil) as a plain bool so the disarmed fast path in Hit is one
// atomic-bool load instead of a pointer load + nil check; both are
// maintained by Enable/disable only.
var (
	enabled atomic.Bool
	armed   atomic.Pointer[state]
)

// splitmix64 is the standard 64-bit mixer; one step advances the seed and
// yields one well-distributed output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Enable arms the harness with cfg's schedule and returns the disarm
// function. Enabling while already enabled replaces the schedule. Intended
// for tests only; nothing in production code calls Enable.
func Enable(cfg Config) (disable func()) {
	maxPeriod := cfg.MaxPeriod
	if maxPeriod == 0 {
		maxPeriod = 64
	}
	st := &state{}
	seed := cfg.Seed
	all := cfg.Points
	if len(all) == 0 {
		for p := Point(0); p < NumPoints; p++ {
			all = append(all, p)
		}
	}
	for _, p := range all {
		st.period[p] = 1 + splitmix64(&seed)%maxPeriod
	}
	armed.Store(st)
	enabled.Store(true)
	return func() {
		enabled.Store(false)
		armed.Store(nil)
	}
}

// Enabled reports whether the harness is armed.
func Enabled() bool { return enabled.Load() }

// Hit marks one pass through injection point p, panicking with a *Fault
// when the armed schedule fires. Disarmed it is a no-op: one atomic load
// and a branch that predicts not-taken.
func Hit(p Point) {
	if !enabled.Load() {
		return
	}
	hitArmed(p)
}

// hitArmed is the armed slow path, kept out-of-line so Hit stays under the
// compiler's inlining budget and callers pay only the atomic load + branch.
//
//go:noinline
func hitArmed(p Point) {
	st := armed.Load()
	if st == nil || st.period[p] == 0 {
		return
	}
	n := st.calls[p].Add(1)
	if n%st.period[p] == 0 {
		st.fired[p].Add(1)
		panic(&Fault{Point: p, Call: n})
	}
}

// Fired returns the number of faults fired per point since Enable, or nil
// when disarmed. Tests use it to tell "no fault fired, answers must match"
// runs from genuinely faulted ones.
func Fired() map[Point]uint64 {
	st := armed.Load()
	if st == nil {
		return nil
	}
	out := make(map[Point]uint64, NumPoints)
	for p := Point(0); p < NumPoints; p++ {
		if n := st.fired[p].Load(); n > 0 {
			out[p] = n
		}
	}
	return out
}

// TotalFired sums Fired across points (0 when disarmed).
func TotalFired() uint64 {
	st := armed.Load()
	if st == nil {
		return 0
	}
	var n uint64
	for p := Point(0); p < NumPoints; p++ {
		n += st.fired[p].Load()
	}
	return n
}
