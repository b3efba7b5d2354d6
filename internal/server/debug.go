package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cqp/internal/obs"
)

// handleDebugRequests serves GET /debug/requests: the flight recorder's
// retained records (the recent ring plus the tail-sampled slowest and
// errored/degraded sets), newest first. Filterable with ?endpoint=,
// ?status= (exact code), ?min_ms= (at least this slow) and ?limit=.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := obs.Filter{Endpoint: q.Get("endpoint")}
	if v := q.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "server: status must be an integer")
			return
		}
		filter.Status = n
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "server: min_ms must be a number")
			return
		}
		filter.MinTotal = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "server: limit must be an integer")
			return
		}
		filter.Limit = n
	}
	reqs := s.flight.Snapshot(filter)
	writeJSON(w, http.StatusOK, map[string]any{
		"total_recorded": s.flight.Count(),
		"returned":       len(reqs),
		"requests":       reqs,
	})
}

// handleDebugRequest serves GET /debug/requests/{id}: one retained record
// in full — outcome, per-phase attribution, and the span tree (both as a
// JSON tree and the same text rendering a ?trace=1 response carried, since
// both views come from the very same trace).
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, span, ok := s.flight.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("server: no retained request %q (evicted or never seen)", id))
		return
	}
	body := map[string]any{"request": snap}
	if span != nil {
		body["spans"] = span.JSON()
		body["tree"] = span.Tree()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSLO serves GET /slo: per-endpoint service-level indicators over
// the requests the flight recorder's ring holds — latency quantiles, error
// and degraded rates, cache and coalesce hit ratios — and window_ms, the
// span from the oldest of them to now.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	window, endpoints := s.flight.SLO()
	writeJSON(w, http.StatusOK, map[string]any{
		"window_ms": float64(window) / float64(time.Millisecond),
		"endpoints": endpoints,
	})
}
