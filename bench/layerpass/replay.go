package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"factorlog/bench/work"
	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/resilience"
	"factorlog/internal/wal"
)

// state is what cmd/factorlogd's newServer assembles, built from the same
// public constructors in the same order, minus HTTP: the replay calls the
// layers on it the way handleQuery and handleFacts do.
type state struct {
	tr          *tracer
	prog        *ast.Program
	hash        string
	cache       *pipeline.PlanCache
	mat         *pipeline.Materializer
	matServe    bool
	planner     *pipeline.AutoPlanner
	limiter     *resilience.Limiter
	wl          *wal.Log // nil unless the workload is durable
	defStrategy pipeline.Strategy
}

// snapshotEvery mirrors -snapshot-every 256, the live_mutation flag.
const snapshotEvery = 256

// newState parses the program and builds the serving state. walDir is empty
// for workloads without a WAL.
func newState(tr *tracer, w *work.Workload, walDir string) (*state, error) {
	tr.opID = "startup"
	tr.begin("parser.program")
	u, err := parser.Parse(w.Program)
	tr.end("")
	if err != nil {
		return nil, err
	}
	s := &state{tr: tr, prog: u.Program(), cache: pipeline.NewPlanCache(),
		matServe: true, defStrategy: pipeline.Magic}
	for _, f := range w.Flags {
		if f == "-materialize=false" {
			s.matServe = false
		}
	}
	s.hash = pipeline.HashProgram(s.prog, nil)
	var durable pipeline.DurableLog
	if walDir != "" {
		tr.begin("wal.open_recover")
		l, _, err := wal.Open(wal.Options{Dir: walDir, ProgramHash: s.hash})
		tr.end("")
		if err != nil {
			return nil, err
		}
		s.wl, durable = l, tracedLog{l, tr}
	}
	s.mat, err = pipeline.NewMaterializer(s.prog, nil, u.Facts, s.cache,
		pipeline.MaterializerOptions{Durable: durable})
	if err != nil {
		return nil, err
	}
	s.planner = pipeline.NewAutoPlanner(s.prog, nil, s.cache, pipeline.SnapshotSource(s.mat), pipeline.AutoPolicy{})
	s.limiter = resilience.NewLimiter(8, 64) // factorlogd's defaults: 8 × -workers 1, -max-queue 64
	return s, nil
}

func (s *state) close() {
	if s.wl != nil {
		s.wl.Close()
	}
}

// tracedLog is the materializer's durable log, as factorlogd's walAdapter
// wires it, with a span around each call: the WAL's time shows as a child
// of the pipeline call that caused it.
type tracedLog struct {
	log *wal.Log
	tr  *tracer
}

func (a tracedLog) Append(b pipeline.MutationBatch) error {
	a.tr.begin("wal.append_sync")
	defer a.tr.end("")
	return a.log.Append(wal.Batch{Epoch: b.Epoch, Assert: atomStrings(b.Assert), Retract: atomStrings(b.Retract)})
}

func (a tracedLog) Since(after int64) ([]pipeline.MutationBatch, bool) {
	a.tr.begin("wal.since")
	defer a.tr.end("")
	batches, err := a.log.Since(after)
	if err != nil {
		return nil, false
	}
	out := make([]pipeline.MutationBatch, 0, len(batches))
	for _, b := range batches {
		assert, err1 := parseFacts(b.Assert)
		retract, err2 := parseFacts(b.Retract)
		if err1 != nil || err2 != nil {
			return nil, false
		}
		out = append(out, pipeline.MutationBatch{Epoch: b.Epoch, Assert: assert, Retract: retract})
	}
	return out, true
}

func atomStrings(atoms []ast.Atom) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}

func parseFacts(in []string) ([]ast.Atom, error) {
	out := make([]ast.Atom, 0, len(in))
	for _, f := range in {
		a, err := parser.ParseAtom(f)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func strategyByName(name string, def pipeline.Strategy) (pipeline.Strategy, error) {
	if name == "" {
		return def, nil
	}
	if name == pipeline.Auto.String() {
		return pipeline.Auto, nil
	}
	for _, s := range pipeline.AllStrategies() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

// response is what the replay encodes per query: the fields of factorlogd's
// queryResponse that grow with the answer, plus a few scalars, indented as
// the server indents.
type response struct {
	Query       string   `json:"query"`
	Strategy    string   `json:"strategy"`
	Answers     []string `json:"answers"`
	AnswerCount int      `json:"answer_count"`
	Epoch       int64    `json:"epoch"`
}

// outcome is what the replay learned from one operation beyond its spans.
type outcome struct {
	planMiss bool
	matKind  string // "", "hit", "build", "delta", "rebuild"
	query    ast.Atom
	strategy pipeline.Strategy
}

// replay runs one operation through the layers and checks it against the
// oracle. opID names the operation in the trace; lastBatch is the class of
// the connection's latest mutation, which names a delta refresh.
func (s *state) replay(opID string, req *work.Request, lastBatch string) (outcome, error) {
	s.tr.opID = opID
	s.tr.begin("op")
	defer s.tr.end("")
	if req.IsFacts() {
		return outcome{}, s.replayFacts(req)
	}
	return s.replayQuery(req, lastBatch)
}

func (s *state) replayQuery(req *work.Request, lastBatch string) (outcome, error) {
	tr, ctx := s.tr, context.Background()
	var out outcome

	tr.begin("parser.atom")
	query, err := parser.ParseAtom(req.Query)
	tr.end("")
	if err != nil {
		return out, err
	}
	strategy, err := strategyByName(req.Strategy, s.defStrategy)
	if err != nil {
		return out, err
	}
	opts := engine.Options{Context: ctx, Workers: 1}
	if req.Workers > 0 {
		opts.Workers = req.Workers
	}
	if req.Stream {
		opts.Streaming = engine.StreamAuto
	}

	tr.begin("resilience.acquire")
	release, err := s.limiter.Acquire(ctx, int64(opts.Workers))
	tr.end("")
	if err != nil {
		return out, err
	}
	defer release()

	var auto *pipeline.AutoServe
	if strategy == pipeline.Auto {
		tr.begin("cost.autopick")
		auto, err = s.planner.Choose(ctx, query)
		tr.end("")
		if err != nil {
			return out, err
		}
		strategy = auto.Strategy
		opts.ReorderJoins = auto.Reorder
	}
	out.query, out.strategy = query, strategy

	// The server reaches the plan cache inside Serve (or just before Run);
	// looking the plan up first puts a compile in its own span instead of
	// inside the materializer's.
	tr.begin("pipeline.plan")
	plan, hit, err := s.cache.Lookup(ctx, s.prog, s.hash, nil, query, strategy)
	if hit {
		tr.end("pipeline.plan_hit")
	} else {
		tr.end("pipeline.plan_miss")
	}
	if err != nil {
		return out, err
	}
	out.planMiss = !hit

	var answers []string
	var epoch int64
	if s.matServe && !req.Stream && pipeline.MaterializableStrategy(strategy) {
		tr.begin("pipeline.mat")
		mres, err := s.mat.Serve(ctx, query, strategy)
		if err != nil {
			tr.end("")
			return out, err
		}
		out.matKind = mres.Kind
		name := "pipeline.mat_" + mres.Kind
		if mres.Kind == "delta" {
			name += "_" + lastBatch
		}
		tr.end(name)
		epoch = mres.Epoch
		tr.begin("pipeline.answers_project")
		answers = make([]string, 0, len(mres.Answers))
		for a := range mres.Answers {
			answers = append(answers, a)
		}
		sort.Strings(answers)
		tr.end("")
	} else {
		tr.begin("engine.loadfacts")
		base, e := s.mat.BaseSnapshot()
		db := engine.NewDB()
		err := engine.LoadFacts(db, base)
		tr.end("")
		if err != nil {
			return out, err
		}
		epoch = e
		tr.begin("engine.eval")
		res, err := plan.Run(db, opts)
		switch {
		case strategy == pipeline.Tabled:
			tr.end("topdown.tabled")
		case err == nil && res.Executor == "stream":
			tr.end("stream.eval")
		default:
			tr.end("")
		}
		if err != nil {
			return out, err
		}
		tr.begin("pipeline.answers_project")
		answers = pipeline.SortedAnswers(res)
		tr.end("")
	}

	tr.begin("factorlogd.encode")
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	err = enc.Encode(response{Query: query.String(), Strategy: strategy.String(),
		Answers: answers, AnswerCount: len(answers), Epoch: epoch})
	tr.end("")
	if err != nil {
		return out, err
	}

	if got := work.DigestRendered(answers); got != req.Want {
		return out, fmt.Errorf("%s under %s: %d answers, oracle expects %d", req.Query, strategy, got.Count, req.Want.Count)
	}
	return out, nil
}

func (s *state) replayFacts(req *work.Request) error {
	tr := s.tr
	tr.begin("factorlogd.decode")
	var body struct {
		Assert  []string `json:"assert"`
		Retract []string `json:"retract"`
	}
	err := json.Unmarshal(req.Body, &body)
	tr.end("")
	if err != nil {
		return err
	}
	parse := func(in []string) ([]ast.Atom, error) {
		out := make([]ast.Atom, 0, len(in))
		for _, f := range in {
			tr.begin("parser.atom")
			a, err := parser.ParseAtom(strings.TrimSuffix(strings.TrimSpace(f), "."))
			tr.end("")
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	}
	assert, err := parse(body.Assert)
	if err != nil {
		return err
	}
	retract, err := parse(body.Retract)
	if err != nil {
		return err
	}
	tr.begin("resilience.acquire")
	release, err := s.limiter.Acquire(context.Background(), 1)
	tr.end("")
	if err != nil {
		return err
	}
	defer release()

	tr.begin("pipeline.apply")
	res, err := s.mat.Apply(assert, retract)
	tr.end("")
	if err != nil {
		return err
	}
	if got, want := res.Asserted+res.Retracted, len(assert)+len(retract); got != want {
		return fmt.Errorf("batch changed %d facts, oracle expects %d", got, want)
	}
	// maybeSnapshot, as handleFacts runs it after the response.
	if s.wl != nil && s.mat.Epoch()-s.wl.SnapshotEpoch() >= snapshotEvery {
		tr.begin("wal.snapshot_write")
		base, epoch := s.mat.BaseSnapshot()
		err := s.wl.WriteSnapshot(wal.Snapshot{Epoch: epoch, ProgramHash: s.hash, Facts: atomStrings(base)})
		tr.end("")
		if err != nil {
			return err
		}
	}
	return nil
}

// replayed is one replayed operation: where it sits in the load's lists, how
// long the replay of it took, and whether its spans were recorded.
type replayed struct {
	conn, index int
	took        time.Duration
	traced      bool
}
