package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"factorlog/internal/ast"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/trace"
)

// MaxFactsBody caps a POST /facts body. Batches are lists of ground atoms;
// 4 MiB holds ~100k short facts, past which clients should chunk anyway so
// a failure doesn't void the whole load.
const MaxFactsBody = 4 << 20

// FactsRequest is the /facts input: facts to assert and retract, each a
// ground atom with optional trailing dot ("e(1,2)." or "e(1,2)").
type FactsRequest struct {
	Assert  []string `json:"assert,omitempty"`
	Retract []string `json:"retract,omitempty"`
}

// FactsResponse reports one applied batch.
type FactsResponse struct {
	pipeline.BatchResult
	// BaseFacts is the live base-EDB size after the batch.
	BaseFacts int `json:"base_facts"`
}

// handleFacts is the mutation endpoint: POST a batch of asserts/retracts,
// get back the epoch it produced (see Facts). GET /facts?since=E streams
// the committed batch log after epoch E — the replica-tailing read (see
// docs/DURABILITY.md).
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	qid := trace.NewID()
	w.Header().Set(QueryIDHeader, qid)
	switch r.Method {
	case http.MethodGet:
		s.handleFactsTail(w, r, qid)
		return
	case http.MethodPost:
	default:
		writeError(w, qid, methodNotAllowed(r.Method))
		return
	}
	if s.draining.Load() {
		s.countFailure(ErrDraining)
		writeError(w, qid, ErrDraining)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxFactsBody)
	var req FactsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, qid, decodeBodyError(err, MaxFactsBody))
		return
	}
	resp, err := s.Facts(r.Context(), req)
	if err != nil {
		writeError(w, qid, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Facts applies one mutation batch. The batch is atomic — validation errors
// (non-ground atoms, arity mismatches) reject it whole with
// engine.ErrMutation and no state change. Mutations pass admission at
// weight 1: they are quick, but an overloaded server should shed them like
// any other work. With durability on, the batch reaches the WAL (fsynced
// per the group-commit policy) before Facts returns — an acknowledged
// epoch survives a crash.
func (s *Server) Facts(ctx context.Context, req FactsRequest) (FactsResponse, error) {
	if len(req.Assert)+len(req.Retract) == 0 {
		return FactsResponse{}, badRequest(errors.New("empty batch (assert and/or retract required)"))
	}
	assert, err := ParseFacts(req.Assert)
	if err != nil {
		return FactsResponse{}, badRequest(fmt.Errorf("assert: %w", err))
	}
	retract, err := ParseFacts(req.Retract)
	if err != nil {
		return FactsResponse{}, badRequest(fmt.Errorf("retract: %w", err))
	}

	release, err := s.Limiter.Acquire(ctx, 1)
	if err != nil {
		s.countFailure(err)
		return FactsResponse{}, err
	}
	defer release()

	res, err := s.Mat.Apply(assert, retract)
	if err != nil {
		return FactsResponse{}, err
	}
	if res.Changed() {
		s.maybeSnapshot()
	}
	return FactsResponse{BatchResult: res, BaseFacts: s.Mat.BaseCount()}, nil
}

// ParseFacts parses mutation atoms, tolerating the trailing dot of .dl-file
// fact syntax ("e(1,2).").
func ParseFacts(in []string) ([]ast.Atom, error) {
	out := make([]ast.Atom, 0, len(in))
	for _, f := range in {
		a, err := parser.ParseAtom(strings.TrimSuffix(strings.TrimSpace(f), "."))
		if err != nil {
			return nil, fmt.Errorf("%q: %w", f, err)
		}
		out = append(out, a)
	}
	return out, nil
}
