package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
	"factorlog/internal/serve"
	"factorlog/internal/wal"
)

// durableCfg is the baseline config of every durability test: magic
// strategy, materialized serving, per-batch fsync.
func durableCfg(walDir string) serve.Config {
	return serve.Config{
		Strategy: "magic", Timeout: 5 * time.Second, Materialize: true,
		WALDir: walDir,
	}
}

// getTail reads GET /facts?since=E.
func getTail(t *testing.T, ts *httptest.Server, since int64) (int, serve.FactsTailResponse, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/facts?since=%d", ts.URL, since))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var tr serve.FactsTailResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("bad tail JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, tr, string(raw)
}

// getStatusJSON reads a status endpoint (/healthz, /readyz) as a JSON map.
func getStatusJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

// randomBatch builds a random mutation batch over a small edge universe;
// the same rng sequence always produces the same batches.
func randomBatch(rng *rand.Rand) string {
	var req serve.FactsRequest
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		req.Assert = append(req.Assert, fmt.Sprintf("e(%d,%d)", 1+rng.Intn(10), 1+rng.Intn(10)))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		req.Retract = append(req.Retract, fmt.Sprintf("e(%d,%d)", 1+rng.Intn(10), 1+rng.Intn(10)))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return string(body)
}

// TestKillRecoverProperty is the crash-recovery property test: a random
// batch sequence with WAL-append faults injected mid-stream, a simulated
// kill (the server is abandoned without Close), and a restart over the
// same directory. Every acknowledged batch must survive: the recovered
// server reports the exact epoch of the last 200, serves answers identical
// to an uninterrupted control server that applied only the acknowledged
// batches, and GET /facts?since=E replays precisely the batches after E.
func TestKillRecoverProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))
			_, ts := testServer(t, tcProgram, durableCfg(dir))
			// The control never crashes and never sees a fault; it receives
			// exactly the batches the durable server acknowledged.
			_, controlTS := testServer(t, tcProgram, serve.Config{
				Strategy: "magic", Timeout: 5 * time.Second, Materialize: true,
			})

			var acked, effective int64
			var faulted int
			apply := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					batch := randomBatch(rng)
					status, fr, body := postFacts(t, ts, batch)
					switch status {
					case http.StatusOK:
						if fr.Epoch < acked {
							t.Fatalf("epoch went backwards: %d after %d", fr.Epoch, acked)
						}
						if fr.Epoch > acked {
							effective++
						}
						acked = fr.Epoch
						if cs, _, cbody := postFacts(t, controlTS, batch); cs != http.StatusOK {
							t.Fatalf("control rejected mirrored batch: %d: %s", cs, cbody)
						}
					case http.StatusInternalServerError:
						// Injected WalAppend fault: the batch was refused
						// before acknowledgment and must leave no trace.
						faulted++
					default:
						t.Fatalf("batch: status %d: %s", status, body)
					}
				}
			}

			apply(8)
			disable := faultinject.Enable(faultinject.Config{
				Seed: 11, MaxPeriod: 3, Points: []faultinject.Point{faultinject.WalAppend},
			})
			apply(8)
			disable()
			apply(8)
			if faulted == 0 {
				t.Fatal("fault schedule never fired; the run proved nothing about crash safety")
			}
			if acked == 0 {
				t.Fatal("no batch was ever acknowledged")
			}
			if acked != effective {
				t.Fatalf("acked epoch %d != %d effective batches (epochs must be dense)", acked, effective)
			}

			// Kill: abandon the server mid-flight — no drain, no Close. The
			// open WAL handle is simply dropped, as kill -9 would.
			ts.Close()

			// Restart over the same directory.
			srv2, ts2 := testServer(t, tcProgram, durableCfg(dir))
			if status, m := getStatusJSON(t, ts2, "/readyz"); status != http.StatusServiceUnavailable || m["status"] != "replaying" {
				t.Errorf("pre-warmup readyz after recovery = %d %v, want 503 replaying", status, m)
			}
			if warns := srv2.Warmup(); len(warns) != 0 {
				t.Fatal(warns)
			}
			if status, m := getStatusJSON(t, ts2, "/readyz"); status != http.StatusOK || m["ready"] != true {
				t.Errorf("post-warmup readyz = %d %v, want 200 ready", status, m)
			}

			// The recovered epoch is exactly the last acknowledged one.
			if got := srv2.Mat.Epoch(); got != acked {
				t.Fatalf("recovered epoch %d, want %d (last acknowledged)", got, acked)
			}
			_, hm := getStatusJSON(t, ts2, "/healthz")
			if got := int64(hm["wal_epoch"].(float64)); got != acked {
				t.Errorf("healthz wal_epoch = %d, want %d", got, acked)
			}

			// Answers equal the uninterrupted control run.
			for _, q := range []string{"t(5,Y)", "t(1,Y)"} {
				got, _ := answersOf(t, ts2, q, "magic")
				want, _ := answersOf(t, controlTS, q, "magic")
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: recovered %v != control %v", q, got, want)
				}
			}

			// The committed log replays precisely the batches after E.
			status, tail, body := getTail(t, ts2, 0)
			if status != http.StatusOK {
				t.Fatalf("tail since=0: %d: %s", status, body)
			}
			if tail.Epoch != acked || int64(len(tail.Batches)) != acked {
				t.Fatalf("tail since=0: epoch %d with %d batches, want %d dense batches", tail.Epoch, len(tail.Batches), acked)
			}
			for i, b := range tail.Batches {
				if b.Epoch != int64(i)+1 {
					t.Fatalf("tail batch %d has epoch %d, want %d", i, b.Epoch, i+1)
				}
			}
			mid := acked / 2
			if status, tail, _ := getTail(t, ts2, mid); status != http.StatusOK ||
				int64(len(tail.Batches)) != acked-mid ||
				(len(tail.Batches) > 0 && tail.Batches[0].Epoch != mid+1) {
				t.Errorf("tail since=%d: %d batches starting at %d, want %d starting at %d",
					mid, len(tail.Batches), tail.Batches[0].Epoch, acked-mid, mid+1)
			}
			if status, tail, _ := getTail(t, ts2, acked); status != http.StatusOK || len(tail.Batches) != 0 {
				t.Errorf("tail since=%d (caught up): %d with %d batches, want 200 empty", acked, status, len(tail.Batches))
			}
		})
	}
}

// TestKillRecoverWithSnapshots exercises the snapshot path end to end:
// per-epoch snapshots with tiny segments force rotation and retention, a
// kill, and a recovery that must come back from snapshot + tail — and the
// pruned history must answer 410 Gone to tailing replicas.
func TestKillRecoverWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SnapshotEvery = 1
	cfg.WALSegmentBytes = 64 // rotate on every batch so retention can prune
	srv, ts := testServer(t, tcProgram, cfg)

	var acked int64
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"assert":["e(%d,%d)"]}`, 20+i, 21+i)
		status, fr, raw := postFacts(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("batch %d: %d: %s", i, status, raw)
		}
		acked = fr.Epoch
	}
	if got := srv.WAL.SnapshotEpoch(); got != acked {
		t.Fatalf("snapshot epoch %d after %d batches with snapshot-every 1, want %d", got, acked, acked)
	}
	control, _ := answersOf(t, ts, "t(20,Y)", "magic")
	ts.Close() // kill

	srv2, ts2 := testServer(t, tcProgram, cfg)
	if got := srv2.Mat.Epoch(); got != acked {
		t.Fatalf("recovered epoch %d, want %d", got, acked)
	}
	if got, _ := answersOf(t, ts2, "t(20,Y)", "magic"); !reflect.DeepEqual(got, control) {
		t.Errorf("recovered answers %v != pre-kill %v", got, control)
	}
	_, hm := getStatusJSON(t, ts2, "/healthz")
	if got := int64(hm["last_snapshot_epoch"].(float64)); got != acked {
		t.Errorf("healthz last_snapshot_epoch = %d, want %d", got, acked)
	}

	// Retention pruned the pre-snapshot segments: epoch-0 history is gone.
	status, _, body := getTail(t, ts2, 0)
	if status != http.StatusGone {
		t.Fatalf("tail since=0 after compaction: %d, want 410: %s", status, body)
	}
	var gone struct {
		FirstAvailable int64 `json:"first_available_epoch"`
		SnapshotEpoch  int64 `json:"last_snapshot_epoch"`
	}
	if err := json.Unmarshal([]byte(body), &gone); err != nil {
		t.Fatalf("bad 410 body: %v\n%s", err, body)
	}
	if gone.SnapshotEpoch != acked || gone.FirstAvailable <= 0 {
		t.Errorf("410 body = %+v, want snapshot at %d and a positive first epoch", gone, acked)
	}
	// Tailing from the snapshot epoch itself still works.
	if status, tail, _ := getTail(t, ts2, acked); status != http.StatusOK || len(tail.Batches) != 0 {
		t.Errorf("tail since=%d: %d with %d batches, want 200 empty", acked, status, len(tail.Batches))
	}
}

// TestFactsTailRequestValidation pins the tail endpoint's client-error
// contract on a live durable server.
func TestFactsTailRequestValidation(t *testing.T) {
	_, ts := testServer(t, tcProgram, durableCfg(t.TempDir()))
	for _, path := range []string{"/facts?since=", "/facts?since=-1", "/facts?since=x"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
	// A fresh log tails cleanly from zero.
	if status, tail, body := getTail(t, ts, 0); status != http.StatusOK || len(tail.Batches) != 0 || tail.Epoch != 0 {
		t.Errorf("empty-log tail = %d %s", status, body)
	}
}

// TestRecoverRefusesProgramMismatch: a WAL records one program's mutation
// history; starting a different program over it must refuse with the typed
// error rather than replay foreign batches.
func TestRecoverRefusesProgramMismatch(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, tcProgram, durableCfg(dir))
	if status, _, body := postFacts(t, ts, `{"assert":["e(8,9)"]}`); status != http.StatusOK {
		t.Fatalf("batch: %d: %s", status, body)
	}
	ts.Close()
	srv.Close()

	other := tcProgram + "\nq(X) :- e(X, X).\n"
	_, err := serve.New(other, "", durableCfg(dir))
	if !errors.Is(err, wal.ErrProgramMismatch) {
		t.Fatalf("startup over a foreign WAL: %v, want ErrProgramMismatch", err)
	}

	// The original program still recovers.
	srv2, err := serve.New(tcProgram, "", durableCfg(dir))
	if err != nil {
		t.Fatalf("original program refused its own WAL: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Mat.Epoch(); got != 1 {
		t.Errorf("recovered epoch %d, want 1", got)
	}
}

// TestRecoverReplayFault: a fault injected while decoding the log during
// startup surfaces as an Open error (no half-replayed server), and the
// next attempt recovers everything.
func TestRecoverReplayFault(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, tcProgram, durableCfg(dir))
	if status, _, body := postFacts(t, ts, `{"assert":["e(8,9)"]}`); status != http.StatusOK {
		t.Fatalf("batch: %d: %s", status, body)
	}
	ts.Close()
	srv.Close()

	disable := faultinject.Enable(faultinject.Config{
		Seed: 1, MaxPeriod: 1, Points: []faultinject.Point{faultinject.Replay},
	})
	_, err := serve.New(tcProgram, "", durableCfg(dir))
	disable()
	var f *faultinject.Fault
	if !errors.As(err, &f) || f.Point != faultinject.Replay {
		t.Fatalf("startup under replay fault: %v, want the injected fault", err)
	}

	srv2, err := serve.New(tcProgram, "", durableCfg(dir))
	if err != nil {
		t.Fatalf("recovery after aborted replay: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Mat.Epoch(); got != 1 {
		t.Errorf("recovered epoch %d, want 1", got)
	}
}

// TestDurabilityMetrics pins the v10 durability surface: the JSON block
// and the Prometheus families, in both enabled and disabled states.
func TestDurabilityMetrics(t *testing.T) {
	_, ts := testServer(t, tcProgram, durableCfg(t.TempDir()))
	if status, _, body := postFacts(t, ts, `{"assert":["e(8,9)"]}`); status != http.StatusOK {
		t.Fatalf("batch: %d: %s", status, body)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Schema     string `json:"schema"`
		Durability struct {
			Enabled       bool  `json:"enabled"`
			WalEpoch      int64 `json:"wal_epoch"`
			BatchesLogged int64 `json:"batches_logged"`
			Fsyncs        int64 `json:"fsyncs"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != obsv.MetricsSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, obsv.MetricsSchema)
	}
	d := doc.Durability
	if !d.Enabled || d.WalEpoch != 1 || d.BatchesLogged != 1 || d.Fsyncs < 1 {
		t.Errorf("durability block = %+v, want enabled at epoch 1 with 1 batch logged", d)
	}

	promResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	prom, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"factorlog_wal_enabled 1",
		"factorlog_wal_epoch 1",
		"factorlog_wal_batches_logged_total 1",
		"factorlog_wal_fsyncs_total",
		"factorlog_snapshot_epoch 0",
		"factorlog_snapshots_written_total 0",
	} {
		if !containsLine(string(prom), family) {
			t.Errorf("prometheus exposition missing %q", family)
		}
	}

	// Durability off: the block stays in the schema, zeroed.
	_, plainTS := testServer(t, tcProgram, serve.Config{Strategy: "magic", Timeout: 5 * time.Second})
	plainResp, err := http.Get(plainTS.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer plainResp.Body.Close()
	var plain struct {
		Durability struct {
			Enabled  bool  `json:"enabled"`
			WalEpoch int64 `json:"wal_epoch"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(plainResp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if plain.Durability.Enabled || plain.Durability.WalEpoch != 0 {
		t.Errorf("durability block without -wal-dir = %+v, want zeroed", plain.Durability)
	}
}

// containsLine reports whether one exposition line starts with prefix.
func containsLine(doc, prefix string) bool {
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
