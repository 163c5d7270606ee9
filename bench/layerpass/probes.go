package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"factorlog/bench/work"
	"factorlog/internal/adorn"
	"factorlog/internal/ast"
	"factorlog/internal/core"
	"factorlog/internal/cost"
	"factorlog/internal/counting"
	"factorlog/internal/engine"
	"factorlog/internal/magic"
	"factorlog/internal/optimize"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/wal"
)

// The probes call one layer at a time, directly, where the replay can only
// see a layer through the pipeline call that contains it. Each call is a
// span; counts the layer returns (inferences, facts, arities) are reported
// exactly.

// prober carries what the probes share.
type prober struct {
	st       *state
	tr       *tracer
	counts   samples // non-time values, by metric name
	deadline time.Time
}

func (p *prober) timeLeft() bool { return time.Now().Before(p.deadline) }

func maxIDBArity(prog *ast.Program) int {
	arities, err := prog.PredArities()
	if err != nil {
		return 0
	}
	widest := 0
	for pred := range prog.IDBPreds() {
		widest = max(widest, arities[pred])
	}
	return widest
}

// rewriteLeaves re-runs, one layer per span, the rewrite chain that a plan
// compile for (query, strategy) ran inside the plan cache — every
// candidate's chain when auto searched — and then the materialization build
// of the program that was served.
func (p *prober) rewriteLeaves(opID string, query ast.Atom, served pipeline.Strategy, searched bool) {
	tr := p.tr
	tr.opID = opID + "/layers"
	tr.begin("op.layers")
	defer tr.end("")

	want := func(s pipeline.Strategy) bool { return searched || s == served }
	tr.begin("adorn")
	ad, err := adorn.Adorn(p.st.prog, query)
	tr.end("")
	if err != nil {
		return
	}
	var m *magic.Result
	if want(pipeline.Magic) || want(pipeline.Factored) || want(pipeline.FactoredOptimized) {
		tr.begin("magic")
		m, err = magic.Transform(ad)
		tr.end("")
		if err != nil {
			return
		}
	}
	if want(pipeline.Factored) || want(pipeline.FactoredOptimized) {
		tr.begin("core.factor")
		fr, err := core.FactorMagic(m, nil)
		tr.end("")
		factorable := 0.0
		if err == nil {
			factorable = 1
			tr.begin("optimize")
			opt, oerr := optimize.Optimize(fr.Program, optimize.ForFactored(fr, magic.QueryPred, m.Seed.Head.Args))
			tr.end("")
			if oerr == nil {
				p.counts.add("core.arity_before", float64(maxIDBArity(m.Program)))
				p.counts.add("core.arity_after", float64(maxIDBArity(opt.Program)))
			}
		}
		p.counts.add("core.factorable_ratio", factorable)
	}
	if want(pipeline.SupplementaryMagic) {
		tr.begin("magic.sup")
		magic.TransformSupplementary(ad) // a shape it rejects still costs the attempt
		tr.end("")
	}
	if want(pipeline.Counting) {
		tr.begin("counting")
		counting.Transform(ad)
		tr.end("")
	}

	plan, _, err := p.st.cache.Lookup(context.Background(), p.st.prog, p.st.hash, nil, query, served)
	if err != nil {
		return
	}
	prog, _, _, err := plan.Pipeline().MaterializedProgram(served)
	if err != nil {
		return
	}
	base := p.st.mat.BaseFacts()
	tr.begin("engine.materialize_build")
	engine.Materialize(prog, base, engine.MaterializeOptions{})
	tr.end("")
}

// costProbes times the statistics snapshot the planner takes whenever the
// epoch has moved, and scores auto's picks against running every candidate.
func (p *prober) costProbes(shapes []*work.Request) {
	tr := p.tr
	base, epoch := p.st.mat.BaseSnapshot()
	for i := 0; i < 5; i++ {
		tr.opID = fmt.Sprintf("probe/cost.snapshot-%d", i)
		tr.begin("cost.snapshot")
		cost.SnapshotFromAtoms(base, epoch)
		tr.end("")
	}

	// For each shape: evaluate every candidate strategy from scratch under a
	// short deadline and see whether auto's pick is within 1.2× of the
	// fastest. A candidate that cannot finish in time is simply slow.
	const limit = 150 * time.Millisecond
	for i, req := range shapes {
		if !p.timeLeft() {
			break
		}
		query, err := parser.ParseAtom(req.Query)
		if err != nil {
			continue
		}
		auto, err := p.st.planner.Choose(context.Background(), query)
		if err != nil {
			continue
		}
		best, picked := limit*2, limit*2
		for _, cand := range pipeline.AutoCandidateStrategies() {
			plan, _, err := p.st.cache.Lookup(context.Background(), p.st.prog, p.st.hash, nil, query, cand)
			if err != nil {
				continue // the class tests reject it for this shape
			}
			db := engine.NewDB()
			if err := engine.LoadFacts(db, base); err != nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), limit)
			tr.opID = fmt.Sprintf("probe/cost.candidate-%d-%s", i, cand)
			tr.begin("cost.candidate_eval")
			start := time.Now()
			_, err = plan.Run(db, engine.Options{Context: ctx, Workers: 1})
			took := time.Since(start)
			tr.end("")
			cancel()
			if err != nil {
				took = limit * 2
			}
			best = min(best, took)
			if cand == auto.Strategy {
				picked = took
			}
		}
		match := 0.0
		if float64(picked) <= 1.2*float64(best) {
			match = 1
		}
		p.counts.add("cost.pick_matches_best_ratio", match)
	}
}

// evalShape is one fixed query the engine probes evaluate from scratch.
type evalShape struct {
	family   string // metric suffix
	query    string
	strategy pipeline.Strategy
	workers  int
	stream   bool
	span     string // span (and metric) prefix: engine.eval, engine.eval_w2, stream.eval, topdown.tabled
}

// engineProbes evaluates one shape per family from scratch, the way a
// -materialize=false request does: copy the base, run the plan.
func (p *prober) engineProbes(sz work.Sizes) {
	small := sz.ChainN - sz.ChainN*3/80 // reach ≈ 150 at full size
	leaf := "n"
	for d := 0; d < sz.TreeDepth; d++ {
		leaf += "l"
	}
	tSmall := fmt.Sprintf("t(%d,Y)", small)
	shapes := []evalShape{
		{"tc_magic", tSmall, pipeline.Magic, 1, false, "engine.eval"},
		{"tc_factored_opt", fmt.Sprintf("t(%d,Y)", sz.ChainN/4), pipeline.FactoredOptimized, 1, false, "engine.eval"},
		{"tc_sup_magic", tSmall, pipeline.SupplementaryMagic, 1, false, "engine.eval"},
		{"tc_counting", tSmall, pipeline.Counting, 1, false, "engine.eval"},
		{"sg_magic", fmt.Sprintf("sg(%s,Y)", leaf), pipeline.Magic, 1, false, "engine.eval"},
		{"join_magic", "t3(X,Z)", pipeline.Magic, 1, false, "engine.eval"},
		{"tc_magic", tSmall, pipeline.Magic, 2, false, "engine.eval_w2"},
		{"join_magic", "t3(X,Z)", pipeline.Magic, 1, true, "stream.eval"},
		{"tc", fmt.Sprintf("t(%d,Y)", sz.ChainN-8), pipeline.Tabled, 1, false, "topdown.tabled"},
	}
	base := p.st.mat.BaseFacts()
	for _, sh := range shapes {
		query, err := parser.ParseAtom(sh.query)
		if err != nil {
			continue
		}
		plan, _, err := p.st.cache.Lookup(context.Background(), p.st.prog, p.st.hash, nil, query, sh.strategy)
		if err != nil {
			continue
		}
		for i := 0; i < 3 && p.timeLeft(); i++ {
			p.tr.opID = fmt.Sprintf("probe/%s.%s-%d", sh.span, sh.family, i)
			p.tr.begin("engine.loadfacts")
			db := engine.NewDB()
			err := engine.LoadFacts(db, base)
			p.tr.end("")
			if err != nil {
				break
			}
			opts := engine.Options{Context: context.Background(), Workers: sh.workers}
			if sh.stream {
				opts.Streaming = engine.StreamAuto
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p.tr.begin(sh.span + "." + sh.family)
			start := time.Now()
			res, err := plan.Run(db, opts)
			took := time.Since(start)
			p.tr.end("")
			runtime.ReadMemStats(&after)
			if err != nil {
				break
			}
			if sh.span == "engine.eval" {
				p.counts.add("engine.inferences."+sh.family, float64(res.Inferences))
				p.counts.add("engine.facts."+sh.family, float64(res.Facts))
				if sh.family == "tc_magic" || sh.family == "join_magic" {
					p.counts.add("engine.alloc_mb_per_eval."+sh.family, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
				}
			}
			if res.Stream != nil {
				p.counts.add("stream.rows_per_s", float64(res.Stream.RowsEmitted)/took.Seconds())
			}
		}
	}
}

// applyProbes maintains two materializations directly: the magic program of
// a join key (non-recursive: retraction by counting) and the factored
// closure of a chain node (recursive: retraction by DRed rebuild),
// asserting and retracting the same small batches in turn.
func (p *prober) applyProbes(sz work.Sizes) {
	base := p.st.mat.BaseFacts()
	ctx := context.Background()
	build := func(q string, s pipeline.Strategy) *engine.Materialization {
		query, err := parser.ParseAtom(q)
		if err != nil {
			return nil
		}
		plan, _, err := p.st.cache.Lookup(ctx, p.st.prog, p.st.hash, nil, query, s)
		if err != nil {
			return nil
		}
		prog, _, _, err := plan.Pipeline().MaterializedProgram(s)
		if err != nil {
			return nil
		}
		m, err := engine.Materialize(prog, base, engine.MaterializeOptions{})
		if err != nil {
			return nil
		}
		return m
	}
	atoms := func(format string, pairs [][2]int) []ast.Atom {
		var out []ast.Atom
		for _, pr := range pairs {
			a, err := parser.ParseAtom(fmt.Sprintf(format, pr[0], pr[1]))
			if err == nil {
				out = append(out, a)
			}
		}
		return out
	}
	cycle := func(m *engine.Materialization, batch []ast.Atom, retractSpan string) {
		if m == nil {
			return
		}
		for i := 0; i < 20 && p.timeLeft(); i++ {
			p.tr.opID = fmt.Sprintf("probe/%s-%d", retractSpan, i)
			p.tr.begin("engine.apply_assert")
			_, err := m.Apply(ctx, batch, nil)
			p.tr.end("")
			if err != nil {
				return
			}
			p.tr.begin(retractSpan)
			_, err = m.Apply(ctx, nil, batch)
			p.tr.end("")
			if err != nil {
				return
			}
		}
	}
	// Fresh edges out of key 0's first two join frontiers.
	join := build(fmt.Sprintf("t%d(0,Z)", work.JoinStages), pipeline.Magic)
	cycle(join, atoms("s0(%d,%d)", [][2]int{{0, sz.JoinN / 2}, {0, sz.JoinN/2 + 1}, {0, sz.JoinN/2 + 2}}),
		"engine.apply_retract_counting")
	// Shortcut edges inside the last stretch of the chain.
	lo := sz.ChainN - sz.ChainN*3/20
	chain := build(fmt.Sprintf("t(%d,Y)", lo), pipeline.FactoredOptimized)
	cycle(chain, atoms("e(%d,%d)", [][2]int{{lo + 1, lo + 9}, {lo + 20, lo + 40}, {lo + 50, sz.ChainN}}),
		"engine.apply_retract_dred")
}

// backlogProbe applies 256 batches without reading, then times the one
// Serve that has to catch up on all of them.
func (p *prober) backlogProbe(pending []*work.Request, reader *work.Request) {
	const backlog = 256
	if len(pending) < backlog || reader == nil {
		return
	}
	p.tr.on = false
	for _, req := range pending[:backlog] {
		if _, err := p.st.replay("backlog", req, ""); err != nil {
			p.tr.on = true
			return
		}
	}
	p.tr.on = true
	query, err := parser.ParseAtom(reader.Query)
	if err != nil {
		return
	}
	strategy, err := strategyByName(reader.Strategy, p.st.defStrategy)
	if err != nil || strategy == pipeline.Auto {
		return
	}
	p.tr.opID = "probe/pipeline.mat_backlog"
	p.tr.begin("pipeline.mat_backlog")
	start := time.Now()
	res, err := p.st.mat.Serve(context.Background(), query, strategy)
	took := time.Since(start)
	p.tr.end("")
	if err == nil && res.Kind == "delta" {
		p.counts.add("pipeline.mat_backlog_ms_per_batch", float64(took.Nanoseconds())/1e6/backlog)
	}
}

// walProbes drives a WAL of its own: one appender fsyncing every record,
// then two appenders sharing a 2 ms group-commit window, a snapshot, a
// tail read and a recovery.
func (p *prober) walProbes(dir string, batches []*work.Request) error {
	if len(batches) == 0 {
		return nil
	}
	tr := p.tr
	batch := func(i int, epoch int64) wal.Batch {
		req := batches[i%len(batches)]
		return wal.Batch{Epoch: epoch, Assert: req.Assert, Retract: req.Retract}
	}
	syncDir := filepath.Join(dir, "sync")
	l, _, err := wal.Open(wal.Options{Dir: syncDir, ProgramHash: p.st.hash})
	if err != nil {
		return err
	}
	const appends = 1000
	n := 0
	for ; n < appends && p.timeLeft(); n++ {
		tr.opID = fmt.Sprintf("probe/wal.append_sync-%d", n)
		tr.begin("wal.append_sync")
		err := l.Append(batch(n, int64(n+1)))
		tr.end("")
		if err != nil {
			l.Close()
			return err
		}
	}
	st := l.Stats()
	p.counts.add("wal.fsyncs", float64(st.Fsyncs))
	p.counts.add("wal.bytes_per_record", float64(st.WalBytes)/float64(max(st.BatchesLogged, 1)))

	base := atomStrings(p.st.mat.BaseFacts())
	for i := 0; i < 3; i++ {
		// Snapshots only move forward, so each needs a newer epoch.
		if err := l.Append(batch(n, int64(n+1))); err != nil {
			break
		}
		n++
		tr.opID = fmt.Sprintf("probe/wal.snapshot_write-%d", i)
		tr.begin("wal.snapshot_write")
		err := l.WriteSnapshot(wal.Snapshot{Epoch: int64(n), ProgramHash: p.st.hash, Facts: base})
		tr.end("")
		if err != nil {
			break
		}
	}
	for i := 0; i < 100; i++ { // a tail for Since and recovery to read
		if err := l.Append(batch(n, int64(n+1))); err != nil {
			break
		}
		n++
	}
	for i := 0; i < 5; i++ {
		tr.opID = fmt.Sprintf("probe/wal.since-%d", i)
		tr.begin("wal.since")
		l.Since(int64(n - 64))
		tr.end("")
	}
	l.Close()
	for i := 0; i < 3; i++ {
		tr.opID = fmt.Sprintf("probe/wal.open_recover-%d", i)
		tr.begin("wal.open_recover")
		l, _, err := wal.Open(wal.Options{Dir: syncDir, ProgramHash: p.st.hash})
		tr.end("")
		if err != nil {
			return err
		}
		l.Close()
	}

	// Group commit. Appends must arrive in epoch order, so the two
	// appenders take turns claiming the next epoch and retry while the
	// other's record is not written yet; both then wait on the same fsync.
	g, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "group"), ProgramHash: p.st.hash, FsyncInterval: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	defer g.Close()
	var mu sync.Mutex
	var next int64 = 1
	var lat []float64
	var failed atomic.Bool // one appender's error must not leave the other spinning
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				mu.Lock()
				epoch := next
				next++
				mu.Unlock()
				start := time.Now()
				for {
					err := g.Append(batch(int(epoch), epoch))
					if err == nil {
						break
					}
					if !errors.Is(err, wal.ErrEpochGap) || failed.Load() {
						failed.Store(true)
						return
					}
					runtime.Gosched()
				}
				mu.Lock()
				lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if gs := g.Stats(); gs.Fsyncs > 0 && len(lat) > 0 {
		p.counts.add("wal.append_group_p50_us", work.Median(lat))
		p.counts.add("wal.appends_per_fsync", float64(gs.BatchesLogged)/float64(gs.Fsyncs))
	}
	return nil
}
