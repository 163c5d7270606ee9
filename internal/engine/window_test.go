package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/obsv"
	"factorlog/internal/parser"
)

// chainRewrites are the magic and factored+opt rewrites of the right-linear
// closure t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). for the query t(1,Y),
// as `factorlog explain` prints them. On a chain, factored+opt derives one
// fact per node and magic one per reachable pair.
var chainRewrites = map[string]string{
	"magic": `
		m_t_bf(1).
		m_t_bf(Z) :- m_t_bf(X), e(X,Z).
		t_bf(X,Y) :- m_t_bf(X), e(X,Y).
		t_bf(X,Y) :- m_t_bf(X), e(X,Z), t_bf(Z,Y).
		query(Y) :- t_bf(1,Y).`,
	"factored+opt": `
		m_t_bf(1).
		m_t_bf(Z) :- m_t_bf(X), e(X,Z).
		ft(Y) :- m_t_bf(X), e(X,Y).
		query(Y) :- ft(Y).`,
}

// chainFacts returns the edges e(i,i+1) of a chain over nodes 1..n.
func chainFacts(t *testing.T, n int) []ast.Atom {
	t.Helper()
	facts := make([]ast.Atom, 0, n-1)
	for i := 1; i < n; i++ {
		facts = append(facts, atom(t, fmt.Sprintf("e(%d,%d)", i, i+1)))
	}
	return facts
}

// evalProbesPerInference evaluates prog over a chain of n nodes with Eval
// and returns its join probes per inference, read off the trace counters.
func evalProbesPerInference(t *testing.T, prog *ast.Program, n int) float64 {
	t.Helper()
	db := NewDB()
	if err := LoadFacts(db, chainFacts(t, n)); err != nil {
		t.Fatal(err)
	}
	res, err := Eval(prog, db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, rs := range res.Stats.Rules {
		probes += rs.JoinProbes
	}
	return float64(probes) / float64(res.Stats.Inferences)
}

// buildProbesPerInference materializes prog over a chain of n nodes and
// returns the build's join probes per inference, read off the insertion
// waves' counters.
func buildProbesPerInference(t *testing.T, prog *ast.Program, n int) float64 {
	t.Helper()
	m, err := Materialize(prog, chainFacts(t, n), MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var joins obsv.RuleStats
	m.joins = &joins
	if err := m.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	return float64(joins.JoinProbes) / float64(joins.TuplesDerived+joins.Duplicates)
}

// TestChainLinearProbesPerInference pins the cost claim of Example 4.6 on
// the engine: on the chain, each inference costs a constant number of join
// probes however long the chain is, under Eval and under a materialization
// build. A semi-naive wave that rescans its delta relation from row 0 makes
// the per-inference cost grow with the chain instead. Both programs span an
// 8x range of chain lengths; magic's starts lower because it derives one
// fact per reachable pair.
func TestChainLinearProbesPerInference(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int
	}{
		{"factored+opt", 256, 2048},
		{"magic", 64, 512},
	} {
		prog := parser.MustParseProgram(chainRewrites[c.name])
		for _, mode := range []struct {
			name    string
			measure func(*testing.T, *ast.Program, int) float64
		}{
			{"eval", evalProbesPerInference},
			{"build", buildProbesPerInference},
		} {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				small, large := mode.measure(t, prog, c.lo), mode.measure(t, prog, c.hi)
				if large > 1.25*small {
					t.Errorf("probes per inference grew from %.2f at n=%d to %.2f at n=%d (> 1.25x)",
						small, c.lo, large, c.hi)
				}
			})
		}
	}
}

// TestDRedRebuildLeaksNothing retracts and re-asserts a chain edge over and
// over under factored+opt: every retraction reaches the recursive magic
// stratum, so each batch clears and recomputes it. The recomputed relations
// must hold no dead rows, and their arenas must not grow with the number
// of batches.
func TestDRedRebuildLeaksNothing(t *testing.T) {
	const n, batches = 256, 50
	prog := parser.MustParseProgram(chainRewrites["factored+opt"])
	m, err := Materialize(prog, chainFacts(t, n), MaterializeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idbArena := func() int64 {
		var total int64
		for pred := range m.idb {
			rel := m.db.Lookup(pred)
			if rel.Len() != rel.Live() {
				t.Fatalf("%s: Len %d != Live %d after a rebuild", pred, rel.Len(), rel.Live())
			}
			arena, _, _, _, _ := rel.StorageFootprint()
			total += arena
		}
		return total
	}
	edge := []ast.Atom{atom(t, fmt.Sprintf("e(%d,%d)", n/2, n/2+1))}
	var first int64
	for i := 1; i <= batches; i++ {
		st, err := m.Apply(context.Background(), nil, edge)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Rebuilt {
			t.Fatalf("batch %d: retracting a chain edge did not rebuild the recursive stratum", i)
		}
		if _, err := m.Apply(context.Background(), edge, nil); err != nil {
			t.Fatal(err)
		}
		arena := idbArena()
		if i == 1 {
			first = arena
		} else if arena > first {
			t.Fatalf("batch %d: IDB arenas hold %d bytes, %d after the first batch", i, arena, first)
		}
	}
	if got := m.db.Count("ft"); got != n-1 {
		t.Errorf("ft holds %d facts after the batches, want %d", got, n-1)
	}
}

// TestRunTableDifferential drives relations through random sequences of
// every write that touches round stamps — in-order and out-of-order
// InsertRound, stampAll, stampDying, resetRounds, deleteRow, the dense
// remove and clone — and after every step checks the run table against a
// brute-force reading of the stamps: for every lower bound lo, no row
// stamped ≥ lo lies before windowStart(lo), and a windowed index probe
// keeps exactly the postings a full scan of the bucket would accept.
func TestRunTableDifferential(t *testing.T) {
	const domain, steps = 6, 400
	for _, dense := range []bool{false, true} {
		name := "indexed"
		if dense {
			name = "dense"
		}
		t.Run(name, func(t *testing.T) {
			// A fresh seed per run, so repeated runs (-count) explore new
			// sequences; every failure names the seed that reproduces it.
			seed := time.Now().UnixNano()
			rng := rand.New(rand.NewSource(seed))
			rel := NewRelation(2)
			if !dense {
				rel.ensureIndex([]int{0})
			}
			wave := int32(1)
			liveRow := func() (int32, bool) {
				var live []int32
				for pos := int32(0); pos < int32(rel.Len()); pos++ {
					if rel.Round(pos) >= 0 {
						live = append(live, pos)
					}
				}
				if len(live) == 0 {
					return 0, false
				}
				return live[rng.Intn(len(live))], true
			}
			for step := 0; step < steps; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 9:
					op = "insert"
					if rng.Intn(3) == 0 {
						wave++
					}
					rel.InsertRound(randTuple(rng, 2, domain), wave)
				case k < 11:
					op = "insert out of order"
					rel.InsertRound(randTuple(rng, 2, domain), int32(rng.Intn(int(wave)+1)))
				case k == 11:
					op = "stampAll"
					wave = int32(rng.Intn(3))
					rel.stampAll(wave)
				case k == 12:
					op = "resetRounds"
					rel.resetRounds()
					wave = 1
				case k == 13 || k == 14:
					// A deletion wave: stamp its rows dying, read, kill them.
					op = "stampDying"
					var dying [][]Val
					for i := rng.Intn(3); i >= 0; i-- {
						if row, ok := liveRow(); ok && rel.Round(row) != 1 {
							rel.stampDying(row)
							dying = append(dying, append([]Val(nil), rel.Tuple(row)...))
						}
					}
					checkRunTable(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), rel, dense, domain)
					op = "kill dying"
					for _, tuple := range dying {
						if dense {
							rel.remove(tuple)
						} else {
							rel.Delete(tuple)
						}
					}
				case k == 15 || k == 16:
					if dense {
						op = "remove"
						if row, ok := liveRow(); ok {
							rel.remove(append([]Val(nil), rel.Tuple(row)...))
						}
					} else {
						op = "deleteRow"
						if row, ok := liveRow(); ok {
							rel.deleteRow(row)
						}
					}
				default:
					op = "clone"
					rel = rel.clone(rng.Intn(4))
					if !dense {
						rel.ensureIndex([]int{0})
					}
				}
				checkRunTable(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), rel, dense, domain)
			}
		})
	}
}

// checkRunTable checks every window lower bound of rel against its stamps.
// A dense relation carries no index (remove forbids one), so its probes
// are checked on a clone.
func checkRunTable(t *testing.T, label string, rel *Relation, dense bool, domain int) {
	t.Helper()
	probed := rel
	if dense {
		probed = rel.clone(0)
		probed.ensureIndex([]int{0})
	}
	maxStamp := int32(0)
	for pos := int32(0); pos < int32(rel.Len()); pos++ {
		maxStamp = max(maxStamp, rel.Round(pos))
	}
	for lo := int32(1); lo <= maxStamp+1; lo++ {
		start := rel.windowStart(lo)
		for pos := int32(0); pos < start && pos < int32(rel.Len()); pos++ {
			if rel.Round(pos) >= lo {
				t.Fatalf("%s: row %d stamped %d lies before windowStart(%d) = %d",
					label, pos, rel.Round(pos), lo, start)
			}
		}
		for key := Val(0); key < Val(domain); key++ {
			var got, want []int32
			for _, pos := range probed.fromWindow(probed.Probe([]int{0}, []Val{key}), lo) {
				if probed.Round(pos) >= lo {
					got = append(got, pos)
				}
			}
			for pos := int32(0); pos < int32(probed.Len()); pos++ {
				if probed.Tuple(pos)[0] == key && probed.Round(pos) >= lo {
					want = append(want, pos)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: windowed probe of %d at lo=%d: got rows %v, want %v", label, key, lo, got, want)
			}
		}
	}
}
