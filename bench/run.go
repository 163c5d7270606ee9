package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"factorlog/bench/work"
)

// runConfig is one benchmark run: one workload, one seed, one pass.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	smoke    bool
	// layers selects the pass: false measures the end-to-end metrics
	// (several set-ups, the load, the kill -9 restarts); true keeps one
	// set-up and the load, reads the client-side layer numbers off it and
	// then replays the executed operations through the layers in-process.
	layers bool
	bins   binaries
	outDir string
}

// runResult is what one run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Pass      string   `json:"pass"` // "end_to_end" or "per_layer"
	Flags     []string `json:"factorlogd_flags"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for diagnosis
	MeasuredS float64  `json:"measured_s"`
	// SpinMS times a fixed arithmetic loop just before and just after the
	// load: how fast this machine was then. The sandbox's speed drifts by
	// tens of percent over minutes; two runs compare only where these agree.
	SpinMS  [2]float64             `json:"machine_spin_ms"`
	Metrics map[string]work.Metric `json:"metrics"`
}

// sample is one completed operation of the measured phase.
type sample struct {
	req     *work.Request
	latency time.Duration
	ok      bool
	// From the response body: the server's own timing of the request and
	// the body size (queries only).
	totalNS, evalNS int64
	bytes           int
}

// queryBody is the part of a /query response the client checks. Answers
// stays raw: it is digested in place instead of being decoded into strings.
type queryBody struct {
	Answers     json.RawMessage `json:"answers"`
	AnswerCount int             `json:"answer_count"`
	Epoch       int64           `json:"epoch"`
	EvalWallNS  int64           `json:"eval_wall_ns"`
	TotalWallNS int64           `json:"total_wall_ns"`
}

// factsBody is the part of a POST /facts response the client checks.
type factsBody struct {
	Epoch     int64 `json:"epoch"`
	Asserted  int   `json:"asserted"`
	Retracted int   `json:"retracted"`
}

// conn is one closed-loop connection: its own transport, capped at a single
// TCP connection, kept alive across requests.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
	// lastEpoch is the newest epoch this connection has seen acknowledged;
	// issued counts batches sent by anyone — a response's epoch must lie
	// between the two.
	lastEpoch int64
	issued    *atomic.Int64
}

func newConn(addr string, issued *atomic.Int64) *conn {
	return &conn{
		base:   "http://" + addr,
		issued: issued,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and checks the response against the oracle. The
// returned error describes a failed operation; the sample is valid either
// way.
func (c *conn) do(req *work.Request) (sample, error) {
	s := sample{req: req}
	var hreq *http.Request
	var err error
	if req.IsFacts() {
		c.issued.Add(1)
		hreq, err = http.NewRequest(http.MethodPost, c.base+"/facts", bytes.NewReader(req.Body))
	} else {
		hreq, err = http.NewRequest(http.MethodGet, c.base+req.Target, nil)
	}
	if err != nil {
		return s, err
	}
	start := time.Now()
	resp, err := c.client.Do(hreq)
	if err != nil {
		s.latency = time.Since(start)
		return s, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(start)
	if err != nil {
		return s, err
	}
	s.bytes = c.buf.Len()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	if req.IsFacts() {
		var b factsBody
		if err := json.Unmarshal(c.buf.Bytes(), &b); err != nil {
			return s, fmt.Errorf("facts response: %w", err)
		}
		if got, want := b.Asserted+b.Retracted, len(req.Assert)+len(req.Retract); got != want {
			return s, fmt.Errorf("batch changed %d facts, oracle expects %d", got, want)
		}
		if b.Epoch <= c.lastEpoch || b.Epoch > c.issued.Load() {
			return s, fmt.Errorf("batch acknowledged at epoch %d, outside (%d, %d]", b.Epoch, c.lastEpoch, c.issued.Load())
		}
		c.lastEpoch = b.Epoch
		s.ok = true
		return s, nil
	}
	var b queryBody
	if err := json.Unmarshal(c.buf.Bytes(), &b); err != nil {
		return s, fmt.Errorf("query response: %w", err)
	}
	s.totalNS, s.evalNS = b.TotalWallNS, b.EvalWallNS
	if got := work.ScanAnswers(b.Answers); got != req.Want || b.AnswerCount != req.Want.Count {
		return s, fmt.Errorf("%s: got %d answers (digest %x), oracle expects %d (%x)",
			req.Query, got.Count, got.Sum, req.Want.Count, req.Want.Sum)
	}
	if b.Epoch < c.lastEpoch || b.Epoch > c.issued.Load() {
		return s, fmt.Errorf("%s answered at epoch %d, outside [%d, %d]", req.Query, b.Epoch, c.lastEpoch, c.issued.Load())
	}
	s.ok = true
	return s, nil
}

// failureLog keeps a count and the first few messages.
type failureLog struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failureLog) add(where string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < 5 {
		f.first = append(f.first, where+": "+err.Error())
	}
}

// opBlocks sizes a workload's operation lists for a run of the given
// length: several times what this commit completes, so the lists outlast
// the clock even after a large speed-up, and capped where cold_bound would
// run out of unseen constants.
func opBlocks(name string, seconds int, smoke bool) int {
	if smoke {
		return 2
	}
	switch name {
	case work.ColdBound:
		return min(seconds*8, 160) // 20 ops per block
	case work.HotHit:
		return seconds * 400 // 32 ops per block
	case work.LiveMutation:
		return seconds * 170 // one 3-op cycle per connection per block
	default:
		return seconds * 10 // 24 ops per block
	}
}

// setUp starts a server for w and runs the warm-up script, returning the
// server and how long it took from exec to the last warm-up response.
func setUp(ctx context.Context, cfg runConfig, w *work.Workload, program, walDir string, fails *failureLog) (*server, []string, time.Duration, error) {
	args := append([]string{"-program", program}, w.Flags...)
	if w.Durable {
		args = append(args, "-wal-dir", walDir)
	}
	start := time.Now()
	srv, err := startServer(cfg.bins.factorlogd, args, filepath.Join(cfg.outDir, "factorlogd-"+w.Name+".stderr"))
	if err != nil {
		return nil, args, 0, err
	}
	if err := srv.waitReady(ctx); err != nil {
		srv.kill()
		return nil, args, 0, err
	}
	var issued atomic.Int64
	c := newConn(srv.addr, &issued)
	defer c.close()
	for _, req := range w.Warmup {
		if _, err := c.do(req); err != nil {
			fails.add("warm-up", err)
		}
	}
	return srv, args, time.Since(start), nil
}

// run executes one benchmark run.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	sizes := work.Full
	if cfg.smoke {
		sizes = work.Smoke
	}
	w, err := work.Generate(cfg.workload, sizes, cfg.seed, opBlocks(cfg.workload, cfg.seconds, cfg.smoke))
	if err != nil {
		return nil, err
	}
	program := filepath.Join(cfg.outDir, "mixed-"+w.Name+".dl")
	if err := os.WriteFile(program, []byte(w.Program), 0o644); err != nil {
		return nil, err
	}

	res := &runResult{Workload: w.Name, Seed: cfg.seed, Pass: "end_to_end", Metrics: map[string]work.Metric{}}
	if cfg.layers {
		res.Pass = "per_layer"
	}
	fails := &failureLog{}

	// Set-up, several times over for the end-to-end pass: its median is the
	// reported setup_s, and the last server stays up for the load.
	setups := 5
	if cfg.layers || cfg.smoke {
		setups = 1
	}
	var srv *server
	var walDir string
	var setupS []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.kill()
			removeTemp(walDir)
		}
		if w.Durable {
			if walDir, err = tempDir(cfg.outDir, "wal-"); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		srv, res.Flags, took, err = setUp(ctx, cfg, w, program, walDir, fails)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() {
		srv.kill()
		removeTemp(walDir)
	}()

	// Measured phase.
	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	cpuBefore, err := srv.cpuMillis()
	if err != nil {
		return nil, err
	}
	var meter *dirMeter
	if w.Durable {
		meter = watchDir(walDir)
	}
	res.SpinMS[0] = spinMS()
	var issued atomic.Int64
	issued.Store(before.Mutation.Epoch)
	samples := make([][]sample, work.Conns)
	conns := make([]*conn, work.Conns)
	var wg sync.WaitGroup
	phaseStart := time.Now()
	deadline := phaseStart.Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < work.Conns; i++ {
		conns[i] = newConn(srv.addr, &issued)
		conns[i].lastEpoch = before.Mutation.Epoch
		samples[i] = make([]sample, 0, len(w.Ops[i]))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, req := range w.Ops[i] {
				if req.CycleStart && (ctx.Err() != nil || !time.Now().Before(deadline)) {
					return
				}
				s, err := conns[i].do(req)
				if err != nil {
					fails.add(fmt.Sprintf("conn %d op %d", i, len(samples[i])), err)
				}
				samples[i] = append(samples[i], s)
			}
		}(i)
	}
	wg.Wait()
	measured := time.Since(phaseStart)
	res.SpinMS[1] = spinMS()
	cpuAfter, err := srv.cpuMillis()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	var walBytes int64
	if meter != nil {
		walBytes = meter.total()
	}
	for _, c := range conns {
		c.close()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	all := append(append([]sample(nil), samples[0]...), samples[1]...)
	res.Attempted = len(all)
	res.MeasuredS = measured.Seconds()
	load := summarize(all, measured)
	load.cpuMS = cpuAfter - cpuBefore
	load.rssMiB = rss
	load.walBytes = walBytes

	if cfg.layers {
		clientLayerMetrics(res.Metrics, load, before, after)
		if err := layerPass(ctx, cfg, samples, res.Metrics); err != nil {
			return nil, err
		}
	} else {
		// Recovery: kill -9, restart on the same flags (and WAL directory),
		// wait for /readyz, then check the epoch and the answers.
		restarts := 9
		if cfg.smoke {
			restarts = 1
		}
		var recoveryS []float64
		wantEpoch := max(conns[0].lastEpoch, conns[1].lastEpoch)
		if !w.Durable {
			wantEpoch = 0 // nothing was logged: back to the program's facts
		}
		checks := recoveryChecks(samples)
		for i := 0; i < restarts; i++ {
			srv.kill()
			start := time.Now()
			srv, err = startServer(cfg.bins.factorlogd, res.Flags, filepath.Join(cfg.outDir, "factorlogd-"+w.Name+".stderr"))
			if err != nil {
				return nil, err
			}
			if err := srv.waitReady(ctx); err != nil {
				return nil, err
			}
			recoveryS = append(recoveryS, time.Since(start).Seconds())
			res.Attempted += 1 + len(checks)
			if got, err := srv.counters(); err != nil {
				fails.add("recovery", err)
			} else if got.Mutation.Epoch != wantEpoch {
				fails.add("recovery", fmt.Errorf("restarted at epoch %d, last acknowledged epoch is %d", got.Mutation.Epoch, wantEpoch))
			}
			issued.Store(wantEpoch)
			c := newConn(srv.addr, &issued)
			c.lastEpoch = wantEpoch
			for _, req := range checks {
				if _, err := c.do(req); err != nil {
					fails.add("recovery", err)
				}
			}
			c.close()
		}
		endToEndMetrics(res.Metrics, load, setupS, recoveryS)
	}
	res.Failed = fails.count
	res.Failures = fails.first
	return res, nil
}

// spinMS is the median time of five runs of a fixed integer loop.
func spinMS() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(1)
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink = x
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return work.Median(ms)
}

// spinSink keeps the compiler from discarding spinMS's loop.
var spinSink uint64

// recoveryChecks picks the queries re-asked after every restart: each
// connection's most recent queries, whose expected answers describe the
// state the server was killed in. (Only the durable workload mutates; the
// others' answers never change, so a restart without a WAL still matches.)
func recoveryChecks(samples [][]sample) []*work.Request {
	var out []*work.Request
	for _, conn := range samples {
		n := 0
		for i := len(conn) - 1; i >= 0 && n < 2 && !conn[i].req.IsFacts(); i-- {
			out = append(out, conn[i].req)
			n++
		}
	}
	return out
}

// layerPass runs the in-process replay (bench/layerpass) over the operations
// the load phase executed, handing it their client latencies so it can say
// how much of them the replay explains, and merges its metrics.
func layerPass(ctx context.Context, cfg runConfig, samples [][]sample, into map[string]work.Metric) error {
	in := work.LayerInput{Workload: cfg.workload, Seed: cfg.seed, Smoke: cfg.smoke,
		Blocks:  opBlocks(cfg.workload, cfg.seconds, cfg.smoke),
		BudgetS: 8,
		Trace:   filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")}
	if cfg.smoke {
		in.BudgetS = 2
	}
	for _, conn := range samples {
		ms := make([]float64, len(conn))
		for i, s := range conn {
			ms[i] = float64(s.latency) / 1e6
		}
		in.LatencyMS = append(in.LatencyMS, ms)
	}
	input, err := json.Marshal(in)
	if err != nil {
		return err
	}
	out, err := runTool(ctx, cfg.bins.layerpass, input, filepath.Join(cfg.outDir, "layerpass-"+cfg.workload+".stderr"))
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	var got map[string]work.Metric
	if err := json.Unmarshal(out, &got); err != nil {
		return fmt.Errorf("layer pass output: %w", err)
	}
	for name, m := range got {
		into[name] = m
	}
	return nil
}
