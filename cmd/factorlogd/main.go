// Command factorlogd is a long-lived HTTP/JSON query server: it loads a
// Datalog program (and optionally an EDB and constraints) at startup,
// compiles each queried (predicate, adornment, strategy) shape once into a
// plan cache, and serves concurrent queries against the shared plans. The
// Magic/factoring rewrite pipeline (Sections 4-5 of the paper) is paid per
// plan, not per request.
//
// Usage:
//
//	factorlogd -program file.dl [-addr :8080] [-edb file] [-constraints file]
//	           [-strategy magic] [-workers N] [-budget N] [-max-bytes N]
//	           [-timeout 10s] [-max-concurrency N] [-max-queue N]
//	           [-trace-sample N] [-slow-query-ms N] [-pprof-addr :6060]
//	           [-materialize=true] [-mat-entries N]
//	           [-wal-dir dir] [-fsync-interval 0s] [-snapshot-every N]
//
// Endpoints:
//
//	GET  /query?q=t(5,Y)[&strategy=S][&workers=N][&timeout_ms=T][&max_bytes=N][&explain=plan|analyze]
//	POST /query    {"query":"t(5,Y)","strategy":"magic","workers":4,"timeout_ms":1000,"explain":"analyze"}
//	POST /facts    {"assert":["e(1,2)"],"retract":["e(3,4)"]} — atomic mutation batch
//	GET  /facts?since=E  committed batch log after epoch E (requires -wal-dir)
//	GET  /healthz  liveness + program fingerprint (200 even while draining)
//	GET  /readyz   readiness: 200 after warmup, 503 while warming up,
//	               replaying the WAL tail, or draining
//	GET  /metrics  Prometheus text exposition (?format=json for the
//	               obsv.MetricsSchema document, ?format=text for a table)
//	GET  /debug/slowlog      recent slow queries, newest first
//	GET  /debug/trace/{id}   one finished trace by query ID (?format=text for a profile)
//
// strategy=auto (per request or as -strategy auto) defers the choice to the
// adaptive cost-based optimizer: the base EDB's statistics are snapshotted,
// every eligible fixed strategy is priced, and the winner serves the query
// (the response reports it under "strategy" with "auto":true). Decisions are
// remembered per query shape and shadow re-costed as /facts batches advance
// the epoch; /metrics reports picks, re-costs, and re-picks under
// plan_search (see docs/PLANNER.md).
//
// The EDB is mutable at runtime: POST /facts asserts and retracts ground
// facts in atomic batches, each effective batch advancing a monotone epoch
// that every query response reports. With -materialize (the default),
// eligible queries answer from incrementally-maintained materializations —
// counting-based semi-naive deltas for insertions and deletions, DRed-style
// stratum rebuilds for recursive retractions (see docs/INCREMENTAL.md).
// -materialize=false evaluates every query from scratch over the current
// base; /facts works either way.
//
// With -wal-dir, mutations are durable (see docs/DURABILITY.md): every
// committed batch reaches an epoch-stamped write-ahead log — fsynced per
// batch, or group-committed within -fsync-interval — before its 200, and
// restart replays the newest base snapshot plus the log tail back to the
// exact pre-crash epoch. -snapshot-every N writes a snapshot every N
// epochs, after which retention prunes the log segments it supersedes.
// Replicas tail the committed history with GET /facts?since=E (410 Gone
// once compaction has pruned the requested range).
//
// Every /query response carries an X-Factorlog-Query-ID header; the same ID
// names the query's trace in /debug/trace/{id} and the slow-query log.
// explain=plan describes the compiled plan (applied reductions, transformed
// rules, stratum schedule, plan-cache disposition) without evaluating;
// explain=analyze evaluates with tracing forced and adds the measured span
// tree and an indented text profile (see docs/OBSERVABILITY.md).
//
// Overload and shutdown behave predictably (see docs/RESILIENCE.md): every
// query passes a weighted admission limiter (weight = its worker count) and
// is shed with 429 + Retry-After when the bounded wait queue is full; on
// SIGINT/SIGTERM the server flips /readyz to 503, refuses new admissions,
// and cancels in-flight evaluations, which answer a typed draining 503.
//
// From-scratch evaluations (materialized serving off or inapplicable) run
// over the current version of the shared base image — aliased, not copied
// — and, like materialization builds, are bounded by the request's
// context: the client disconnecting or the per-request timeout expiring
// stops the evaluation at the next round boundary (or mid-round under
// parallel evaluation) instead of burning the fixpoint to completion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"factorlog/internal/pipeline"
	"factorlog/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "factorlogd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("factorlogd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	programFile := fs.String("program", "", "Datalog program file (rules, optional facts and ?- queries)")
	edbFile := fs.String("edb", "", "file of additional ground facts")
	constraintsFile := fs.String("constraints", "", "file of full-TGD EDB constraints")
	strategyName := fs.String("strategy", "magic",
		fmt.Sprintf("default evaluation strategy, one of %v ('auto' = cost-based pick per query)",
			append(pipeline.AllStrategies(), pipeline.Auto)))
	workers := fs.Int("workers", 1, "default evaluation workers (>1 = parallel stratified semi-naive)")
	budget := fs.Int("budget", 0, "max derived facts per query (0 = unlimited)")
	maxBytes := fs.Int64("max-bytes", 0, "max arena+index bytes per query evaluation (0 = unlimited)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request evaluation timeout (0 = none)")
	maxConcurrency := fs.Int64("max-concurrency", 0, "admission capacity in worker-weight units (0 = 8x default workers)")
	maxQueue := fs.Int("max-queue", 64, "admission wait-queue length before shedding with 429")
	traceSample := fs.Int("trace-sample", 0, "trace one query in every N (0 = only explain=analyze, 1 = all)")
	slowQueryMS := fs.Int("slow-query-ms", 500, "slow-query log threshold in milliseconds (0 = disabled)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
	materialize := fs.Bool("materialize", true, "serve eligible queries from incrementally-maintained materializations")
	matEntries := fs.Int("mat-entries", 64, "max live materializations (LRU-evicted past it)")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory: log every committed /facts batch durably and recover it on restart (empty = no durability)")
	fsyncInterval := fs.Duration("fsync-interval", 0, "WAL group-commit window; appends within it share one fsync (0 = fsync every batch)")
	snapshotEvery := fs.Int64("snapshot-every", 256, "write a base snapshot every N epochs and prune superseded WAL segments (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *programFile == "" {
		return errors.New("missing -program file.dl")
	}

	src, err := os.ReadFile(*programFile)
	if err != nil {
		return err
	}
	if *edbFile != "" {
		extra, err := os.ReadFile(*edbFile)
		if err != nil {
			return err
		}
		src = append(append(src, '\n'), extra...)
	}
	var constraints string
	if *constraintsFile != "" {
		csrc, err := os.ReadFile(*constraintsFile)
		if err != nil {
			return err
		}
		constraints = string(csrc)
	}

	srv, err := serve.New(string(src), constraints, serve.Config{
		Strategy:       *strategyName,
		Workers:        *workers,
		Budget:         *budget,
		MaxBytes:       *maxBytes,
		Timeout:        *timeout,
		MaxConcurrency: *maxConcurrency,
		MaxQueue:       *maxQueue,
		TraceSample:    *traceSample,
		SlowQuery:      time.Duration(*slowQueryMS) * time.Millisecond,
		Materialize:    *materialize,
		MatEntries:     *matEntries,
		WALDir:         *walDir,
		FsyncInterval:  *fsyncInterval,
		SnapshotEvery:  *snapshotEvery,
	})
	if err != nil {
		return err
	}
	// Close flushes the WAL's final group commit on every exit path.
	defer srv.Close()
	for _, warn := range srv.Warmup() {
		fmt.Fprintln(os.Stderr, "factorlogd: warmup:", warn)
	}

	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "factorlogd: pprof on", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "factorlogd: pprof:", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "factorlogd: serving %s (%d rules, %d base facts) on %s\n",
			*programFile, len(srv.Program.Rules), srv.Mat.BaseCount(), *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Drain before Shutdown: flip /readyz, refuse new admissions, and
		// cancel in-flight evaluations so their handlers answer typed 503s
		// well inside the shutdown timeout instead of evaluating to the bitter
		// end and tripping the 5s axe.
		fmt.Fprintln(os.Stderr, "factorlogd: draining and shutting down")
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutdownCtx)
	}
}
