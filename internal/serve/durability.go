package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/pipeline"
	"factorlog/internal/wal"
)

// openBase builds the base image the materializer starts from. With
// durability on it opens (and recovers) the write-ahead log first, so the
// recovered image and its epoch seed the server, and returns the log with
// its DurableLog adapter. A program-hash mismatch
// refuses startup — replaying another program's mutation history would
// silently corrupt the base.
func openBase(progFacts []ast.Atom, hash string, cfg Config) (*engine.Base, *wal.Log, pipeline.DurableLog, error) {
	if cfg.WALDir == "" {
		base, err := engine.NewBase(progFacts, 0)
		return base, nil, nil, err
	}
	l, rec, err := wal.Open(wal.Options{
		Dir:           cfg.WALDir,
		ProgramHash:   hash,
		FsyncInterval: cfg.FsyncInterval,
		SegmentBytes:  cfg.WALSegmentBytes,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	base, err := recoverBase(progFacts, rec)
	if err != nil {
		l.Close()
		return nil, nil, nil, fmt.Errorf("wal replay: %w", err)
	}
	return base, l, walAdapter{l}, nil
}

// walAdapter bridges the materializer's DurableLog to the wal package:
// atoms render as their canonical strings on the way down and parse back
// for WAL-backed delta refreshes.
type walAdapter struct{ log *wal.Log }

func (a walAdapter) Append(b pipeline.MutationBatch) error {
	return a.log.Append(wal.Batch{
		Epoch:   b.Epoch,
		Assert:  atomStrings(b.Assert),
		Retract: atomStrings(b.Retract),
	})
}

// Since reports ok=false on any read failure (compaction included); the
// materializer then falls back to its from-scratch rebuild.
func (a walAdapter) Since(after int64) ([]pipeline.MutationBatch, bool) {
	batches, err := a.log.Since(after)
	if err != nil {
		return nil, false
	}
	out := make([]pipeline.MutationBatch, 0, len(batches))
	for _, b := range batches {
		assert, err := ParseFacts(b.Assert)
		if err != nil {
			return nil, false
		}
		retract, err := ParseFacts(b.Retract)
		if err != nil {
			return nil, false
		}
		out = append(out, pipeline.MutationBatch{Epoch: b.Epoch, Assert: assert, Retract: retract})
	}
	return out, true
}

func atomStrings(atoms []ast.Atom) []string {
	if len(atoms) == 0 {
		return nil
	}
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}

// recoverBase reconstructs the pre-crash base image: the newest snapshot's
// facts at the snapshot's epoch (or the program file's at epoch 0, when no
// snapshot was ever written) with the committed log tail replayed on top
// through the same engine.Base.Apply live batches go through —
// retractions before assertions, one epoch per batch. The log is dense and
// holds effective batches only, so the replay must land on the log's last
// epoch; anything else means snapshot and log disagree, and startup is
// refused rather than served from a base nobody acknowledged.
func recoverBase(progFacts []ast.Atom, rec *wal.Recovery) (*engine.Base, error) {
	facts, epoch := progFacts, int64(0)
	if rec.Snapshot != nil {
		var err error
		if facts, err = ParseFacts(rec.Snapshot.Facts); err != nil {
			return nil, fmt.Errorf("snapshot fact %w", err)
		}
		epoch = rec.Snapshot.Epoch
	}
	base, err := engine.NewBase(facts, epoch)
	if err != nil {
		return nil, err
	}
	for _, b := range rec.Batches {
		retract, err := ParseFacts(b.Retract)
		if err != nil {
			return nil, fmt.Errorf("epoch %d retract %w", b.Epoch, err)
		}
		assert, err := ParseFacts(b.Assert)
		if err != nil {
			return nil, fmt.Errorf("epoch %d assert %w", b.Epoch, err)
		}
		if _, _, _, err := base.Apply(assert, retract); err != nil {
			return nil, fmt.Errorf("epoch %d: %w", b.Epoch, err)
		}
	}
	if got := base.Current().Epoch(); got != rec.Epoch {
		return nil, fmt.Errorf("replay reached epoch %d, the log ends at %d", got, rec.Epoch)
	}
	return base, nil
}

// maybeSnapshot writes a base snapshot when the epoch has advanced
// snapshotEvery past the last one; retention then prunes log segments the
// snapshot supersedes. Failures are not fatal — the log alone remains
// authoritative and the next batch retries.
func (s *Server) maybeSnapshot() {
	if s.WAL == nil || s.snapshotEvery <= 0 {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.Mat.Epoch()-s.WAL.SnapshotEpoch() < s.snapshotEvery {
		return
	}
	version := s.Mat.Version()
	err := s.WAL.WriteSnapshot(wal.Snapshot{
		Epoch:       version.Epoch(),
		ProgramHash: s.hash,
		Facts:       version.FactStrings(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "factorlogd: snapshot:", err)
	}
}

// maxTailBatches caps one GET /facts?since=E response; a replica further
// behind follows the "more" marker with another request from the last
// epoch it received.
const maxTailBatches = 1024

// FactsTailResponse is the GET /facts?since=E output: the committed
// batches with epochs in (since, epoch], oldest first.
type FactsTailResponse struct {
	Since int64 `json:"since"`
	// Epoch is the WAL's committed epoch at read time; a response whose
	// last batch reaches it has caught the replica up.
	Epoch   int64       `json:"epoch"`
	Batches []wal.Batch `json:"batches"`
	// More marks a truncated response (maxTailBatches); follow up with
	// since = the last returned epoch.
	More bool `json:"more,omitempty"`
}

// handleFactsTail serves the committed batch log for replicas. Compacted
// history answers 410 Gone with the first epoch still available, telling
// the replica to bootstrap from a snapshot instead.
func (s *Server) handleFactsTail(w http.ResponseWriter, r *http.Request, qid string) {
	if s.WAL == nil {
		writeError(w, qid, badRequest(errors.New("durable log disabled (start with -wal-dir to tail /facts)")))
		return
	}
	sinceStr := r.URL.Query().Get("since")
	if sinceStr == "" {
		writeError(w, qid, badRequest(errors.New("missing since (GET /facts?since=E)")))
		return
	}
	since, err := strconv.ParseInt(sinceStr, 10, 64)
	if err != nil || since < 0 {
		writeError(w, qid, badRequest(fmt.Errorf("bad since %q: want a non-negative epoch", sinceStr)))
		return
	}
	batches, err := s.WAL.Since(since)
	if errors.Is(err, wal.ErrCompacted) {
		first, _ := s.WAL.FirstAvailable()
		writeJSON(w, http.StatusGone, map[string]any{
			"error":                 err.Error(),
			"first_available_epoch": first,
			"last_snapshot_epoch":   s.WAL.SnapshotEpoch(),
		})
		return
	}
	if err != nil {
		writeError(w, qid, err)
		return
	}
	resp := FactsTailResponse{Since: since, Epoch: s.WAL.Epoch()}
	if len(batches) > maxTailBatches {
		batches, resp.More = batches[:maxTailBatches], true
	}
	if batches == nil {
		batches = []wal.Batch{}
	}
	resp.Batches = batches
	writeJSON(w, http.StatusOK, resp)
}
