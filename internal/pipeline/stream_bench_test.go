package pipeline

import (
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/workload"
)

// BenchmarkLayeredJoins compares the two schedules on the layered
// non-recursive joins: the global loop joins every layer in round 0 and
// again in a delta round that finds nothing new; StreamAuto runs each layer
// once (bench/ tracks the same pair as stream.eval_ms.join_magic vs
// engine.eval_ms.join_magic).
func BenchmarkLayeredJoins(b *testing.B) {
	const stages, n = 6, 2000
	prog := parser.MustParseProgram(workload.LayeredJoinProgram(stages))
	for _, mode := range []engine.StreamMode{engine.StreamOff, engine.StreamAuto} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := engine.NewDB()
				workload.LayeredJoins(db, stages, n, 1)
				b.StartTimer()
				if _, err := engine.Eval(prog, db, engine.Options{Streaming: mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
