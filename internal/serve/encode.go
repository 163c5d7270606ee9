package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"factorlog/internal/pipeline"
)

// writeResponse sends a /query success body in one Write with an exact
// Content-Length. plain is the answers' decided-once JSON safety (see
// appendResponse).
func writeResponse(w http.ResponseWriter, resp *Response, plain bool) {
	size := 256 + len(resp.QueryID) + len(resp.Query) + len(resp.Strategy)
	for _, a := range resp.Answers {
		size += len(a) + 3
	}
	body := appendResponse(make([]byte, 0, size), resp, plain)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// appendResponse appends r as JSON: byte for byte what
// json.NewEncoder(w).Encode(r) writes, fields in struct order, omitempty
// honoured, trailing newline included. plain says no answer needs escaping
// (pipeline.MatResult.Plain), so each is quoted without a scan; every
// other string is scanned, and one that needs escaping is encoded by
// encoding/json.
func appendResponse(buf []byte, r *Response, plain bool) []byte {
	buf = appendString(append(buf, `{"query_id":`...), r.QueryID)
	buf = appendString(append(buf, `,"query":`...), r.Query)
	buf = appendString(append(buf, `,"strategy":`...), r.Strategy)
	buf = append(buf, `,"answers":`...)
	if r.Answers == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, a := range r.Answers {
			if i > 0 {
				buf = append(buf, ',')
			}
			if plain {
				buf = append(append(append(buf, '"'), a...), '"')
			} else {
				buf = appendString(buf, a)
			}
		}
		buf = append(buf, ']')
	}
	buf = strconv.AppendInt(append(buf, `,"answer_count":`...), int64(r.AnswerCount), 10)
	buf = strconv.AppendInt(append(buf, `,"facts":`...), int64(r.Facts), 10)
	buf = strconv.AppendInt(append(buf, `,"inferences":`...), int64(r.Inferences), 10)
	buf = strconv.AppendInt(append(buf, `,"iterations":`...), int64(r.Iterations), 10)
	buf = appendString(append(buf, `,"plan_cache":`...), r.PlanCache)
	buf = strconv.AppendInt(append(buf, `,"eval_wall_ns":`...), r.EvalWallNS, 10)
	buf = strconv.AppendInt(append(buf, `,"total_wall_ns":`...), r.TotalWallNS, 10)
	buf = strconv.AppendInt(append(buf, `,"epoch":`...), r.Epoch, 10)
	if r.Materialized != "" {
		buf = appendString(append(buf, `,"materialized":`...), r.Materialized)
	}
	if r.RefreshWallNS != 0 {
		buf = strconv.AppendInt(append(buf, `,"refresh_wall_ns":`...), r.RefreshWallNS, 10)
	}
	if r.Degraded {
		buf = append(buf, `,"degraded":true`...)
	}
	if r.Executor != "" {
		buf = appendString(append(buf, `,"executor":`...), r.Executor)
	}
	if r.Stream != nil {
		buf = appendMarshal(append(buf, `,"stream":`...), r.Stream)
	}
	if r.Auto {
		buf = append(buf, `,"auto":true`...)
	}
	if r.Repicked {
		buf = append(buf, `,"repicked":true`...)
	}
	return append(buf, "}\n"...)
}

// appendString appends s as a JSON string: between quotes when it is
// plain, through encoding/json otherwise.
func appendString(buf []byte, s string) []byte {
	if pipeline.JSONPlain(s) {
		return append(append(append(buf, '"'), s...), '"')
	}
	return appendMarshal(buf, s)
}

// appendMarshal appends v's encoding/json encoding. It is only called on
// a string or on a *obsv.StreamStats, a struct of integers, neither of
// which can fail to encode.
func appendMarshal(buf []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(buf, b...)
}
