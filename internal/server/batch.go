package server

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"cqp/internal/exec"
	"cqp/internal/obs"
)

// batchRequest is the body of POST /personalize/batch: a list of
// /personalize-shaped items sharing one deadline. Per-item trace, timeout
// and limit fields are ignored — the batch is one request with one
// deadline, and traces don't compose across coalesced runs. Execute makes
// every item run its personalized query too (the /execute shape), under
// one scan share: each base relation is physically read once for the whole
// batch. Limit caps rows per executed item (default Config.MaxRows).
type batchRequest struct {
	Items     []personalizeRequest `json:"items"`
	TimeoutMS int                  `json:"timeout_ms"`
	Execute   bool                 `json:"execute"`
	Limit     int                  `json:"limit"`
}

// batchItemJSON is one item's outcome: a personalize response (plus the
// executed rows in execute mode) or a per-item error envelope, never both.
// Duplicate marks items answered by an identical earlier item's run.
type batchItemJSON struct {
	*personalizeResponse
	Rows       []rowJSON  `json:"rows,omitempty"`
	RowCount   int        `json:"row_count,omitempty"`
	TotalRows  int        `json:"total_rows,omitempty"`
	BlockReads int64      `json:"block_reads,omitempty"`
	ExecMS     float64    `json:"exec_ms,omitempty"`
	Duplicate  bool       `json:"duplicate,omitempty"`
	Error      *errorBody `json:"error,omitempty"`
}

// batchResponse is the body of a /personalize/batch answer. Results is
// aligned index-for-index with the request's items.
type batchResponse struct {
	Results []batchItemJSON `json:"results"`
	// Distinct counts the pipeline-distinct items; Duplicates counts the
	// items answered by another item's run.
	Distinct   int `json:"distinct"`
	Duplicates int `json:"duplicates"`
	// DegradedCounts breaks the batch down by ladder rung: how many items
	// (duplicates included) were answered at each non-full-fidelity rung.
	// The batch's flight record carries the worst rung; the full spectrum
	// lives here.
	DegradedCounts map[string]int `json:"degraded_counts,omitempty"`
	// SharedScans / PhysicalScans report the batch's scan share in execute
	// mode: opens answered from an already-materialized pass, and relations
	// physically read (once each).
	SharedScans   int64 `json:"shared_scans,omitempty"`
	PhysicalScans int64 `json:"physical_scans,omitempty"`
}

// batchIdentity is the dedup key of one prepared item: items with equal
// identities would run the exact same pipeline, so one run answers all. A
// cacheable item's exact cache key is that already; an uncacheable one is
// named by the same parts plus no_cache itself — an item that demanded a
// fresh run must not be answered by one that may come from cache.
func batchIdentity(c *call) string {
	if c.key != "" {
		return c.key
	}
	var buf [512]byte
	b := c.appendIdentity(buf[:0])
	b = strconv.AppendUint(append(b, '@'), c.version, 10)
	return string(strconv.AppendBool(append(b, "nc="...), c.req.base().NoCache))
}

// rungSeverity orders degradation rungs for the batch's worst-rung
// aggregate; higher is worse. Unknown rungs rank just below unavailable so
// a new rung is never silently treated as full fidelity.
func rungSeverity(rung string) int {
	switch rung {
	case "":
		return 0
	case degradedStaleReplica:
		return 1
	case "stale":
		return 2
	case "heuristic":
		return 3
	case "tight-cmax":
		return 4
	case "unavailable":
		return 6
	default:
		return 5
	}
}

// roleOrder ranks cache/coalesce roles by the work they stand for, for the
// batch's role aggregate: a batch is a "hit" only when every unit was.
var roleOrder = []string{"", "hit", "follower", "leader", "solo"}

// handleBatch serves POST /personalize/batch — the list-page shape: many
// personalizations in one request — as the pipeline driver's list face.
// Every item is prepared like a /personalize (with "execute": true, an
// /execute) body, items are deduplicated by identity, and the distinct ones
// run concurrently through the same lookup and run as a singleton request,
// under the batch's one deadline and trace. Results come back in item order
// with per-item errors: one malformed or infeasible item fails alone.
// Executed items share one physical scan per base relation.
//
// The flight record is written once, after every unit finished: the worst
// rung and the costliest role of the batch (concurrent units writing the
// shared record left an arbitrary last writer). The response carries the
// per-rung counts.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	body, err := s.decodeJSON(w, r, &req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// A batch is routed as one request by its first stored-profile item: the
	// endpoint's shape is one user's list page, so items overwhelmingly share
	// one owner. A mixed-owner batch resolves its foreign items against the
	// serving node's store and they fail item-wise, so callers wanting
	// cross-owner batches should split them per user.
	id := ""
	for _, it := range req.Items {
		if id = it.ProfileID; id != "" {
			break
		}
	}
	local, replica := s.route(w, r, false, id, body)
	if !local {
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: batch needs at least one item"))
		return
	}
	if len(req.Items) > s.cfg.BatchMaxItems {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: batch of %d items exceeds the %d-item cap", len(req.Items), s.cfg.BatchMaxItems))
		return
	}
	rec := obs.RequestFromContext(r.Context())
	lp := rec.Laps()
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	ep := personalizeEndpoint
	var share *exec.ScanShare
	if req.Execute {
		ep = executeEndpoint
		share = exec.NewScanShare(0)
		ctx = exec.WithScanShare(ctx, share)
	}

	answers := make([]answer, len(req.Items))
	units := make([]*call, len(req.Items))           // the pipeline-distinct items; nil elsewhere
	leaderOf := make(map[string]int, len(req.Items)) // identity → the first item with it
	dupOf := make(map[int]int)                       // duplicate item → the item that answers it
	for i := range req.Items {
		item := &req.Items[i]
		item.execute, item.Limit = req.Execute, req.Limit
		c := &call{ep: ep, req: item}
		if err := s.prepare(c, replica); err != nil {
			answers[i] = answer{err: err}
			continue
		}
		id := batchIdentity(c)
		if li, ok := leaderOf[id]; ok {
			dupOf[i] = li
		} else {
			leaderOf[id], units[i] = i, c
		}
	}
	lp.Lap(obs.PhaseParse)

	var wg sync.WaitGroup
	for i, c := range units {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func() {
			// The item runs the pipeline on this goroutine: a panic here
			// fails the item, not the daemon.
			defer func() {
				if r := recover(); r != nil {
					s.reg.Counter("server_panics_total", "endpoint", "batch").Inc()
					answers[i] = answer{err: fmt.Errorf("%w: %v", errPanic, r)}
				}
				wg.Done()
			}()
			if hit := s.lookup(c); hit != nil {
				answers[i] = answer{resp: c.ep.stamp(hit.val, true, ""), role: "hit"}
			} else {
				answers[i] = s.run(ctx, c)
			}
		}()
	}
	wg.Wait()

	resp := batchResponse{
		Results:  make([]batchItemJSON, len(answers)),
		Distinct: len(leaderOf), Duplicates: len(dupOf),
	}
	role, worst := "", ""
	for i, a := range answers {
		li, dup := dupOf[i]
		if dup {
			a = answers[li]
		}
		resp.Results[i] = itemFrom(a)
		resp.Results[i].Duplicate = dup
		if slices.Index(roleOrder, a.role) > slices.Index(roleOrder, role) {
			role = a.role
		}
		if a.rung == "" {
			continue
		}
		if resp.DegradedCounts == nil {
			resp.DegradedCounts = make(map[string]int)
		}
		resp.DegradedCounts[a.rung]++
		if rungSeverity(a.rung) > rungSeverity(worst) {
			worst = a.rung
		}
	}
	rec.SetRole(role)
	rec.SetRung(worst)
	if share != nil {
		resp.PhysicalScans, resp.SharedScans = share.Stats()
		s.reg.Counter("server_batch_physical_scans_total").Add(resp.PhysicalScans)
		s.reg.Counter("server_batch_shared_scans_total").Add(resp.SharedScans)
	}
	writeJSON(w, http.StatusOK, resp)
}

// itemFrom is the batch's per-item sink: it shapes one answer — already the
// item's own copy — into the item envelope.
func itemFrom(a answer) batchItemJSON {
	if a.err != nil {
		_, class := errorStatus(a.err, http.StatusBadRequest)
		return batchItemJSON{Error: &errorBody{Class: class, Message: a.err.Error()}}
	}
	if er, ok := a.resp.(*executeResponse); ok {
		return batchItemJSON{
			personalizeResponse: &er.personalizeResponse,
			Rows:                er.Rows,
			RowCount:            er.RowCount,
			TotalRows:           er.TotalRows,
			BlockReads:          er.BlockReads,
			ExecMS:              er.ExecMS,
		}
	}
	return batchItemJSON{personalizeResponse: a.resp.(*personalizeResponse)}
}
