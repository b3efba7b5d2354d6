package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"cqp"
	"cqp/internal/iter"
	"cqp/internal/obs"
	"cqp/internal/storage"
)

// problemSpec is the JSON form of a Table-1 problem: the number plus the
// full bound set; bounds the problem does not use are ignored. The zero
// value means the paper's default context, Problem 2 with cmax = 400 ms.
type problemSpec struct {
	Number int     `json:"number"`
	CmaxMS float64 `json:"cmax_ms"`
	Smin   float64 `json:"smin"`
	Smax   float64 `json:"smax"`
	Dmin   float64 `json:"dmin"`
}

func (ps problemSpec) build() (cqp.Problem, error) {
	if ps.Number == 0 {
		return cqp.Problem2(400), nil
	}
	return cqp.BuildProblem(ps.Number, ps.CmaxMS, ps.Smin, ps.Smax, ps.Dmin)
}

// common is the part of the body every pipeline endpoint shares. Exactly
// one of ProfileID (a stored profile — cacheable) and Profile (inline text —
// never cached) must be set.
type common struct {
	SQL       string `json:"sql"`
	ProfileID string `json:"profile_id"`
	Profile   string `json:"profile"`
	TimeoutMS int    `json:"timeout_ms"`
	NoCache   bool   `json:"no_cache"`
	Trace     bool   `json:"trace"`
}

func (c *common) base() *common { return c }

// personalizeRequest is the body of POST /personalize and POST /execute,
// and one item of POST /personalize/batch.
type personalizeRequest struct {
	common
	Problem   problemSpec `json:"problem"`
	Algorithm string      `json:"algorithm"`
	K         int         `json:"k"`
	AnyMatch  bool        `json:"any_match"`
	Merge     bool        `json:"merge"`
	Budget    int         `json:"budget"`
	Limit     int         `json:"limit"` // /execute row cap

	// execute makes the request run its personalized query too — the one
	// difference between /personalize and /execute. Set by the endpoint (or
	// the batch), never by the body.
	execute bool
	prob    cqp.Problem // Problem, built by check
}

// solutionJSON serializes the chosen solution and its search stats.
type solutionJSON struct {
	Doi           float64 `json:"doi"`
	CostMS        float64 `json:"cost_ms"`
	SizeRows      float64 `json:"size_rows"`
	Algorithm     string  `json:"algorithm"`
	StatesVisited int     `json:"states_visited"`
	Truncated     bool    `json:"truncated,omitempty"`
	DurationUS    int64   `json:"duration_us"`
}

// envelope is the per-request part of every pipeline response, embedded
// where each response's field order has always had it. The body around it
// is shared (cached, coalesced) and immutable; the envelope is set on a
// per-request copy (endpoint.stamp).
type envelope struct {
	Cached bool `json:"cached"`
	// Degraded names the ladder rung that answered ("stale", "heuristic",
	// "tight-cmax") or "stale_replica"; empty for a full-fidelity answer.
	Degraded string `json:"degraded,omitempty"`
	Trace    string `json:"trace,omitempty"`
	// RequestID and AttributionUS ride along when the request asked for the
	// trace (body trace:true or ?trace=1): the request's ID — the handle
	// into /debug/requests/{id} — and the per-phase latency attribution in
	// microseconds, with the wall time so far under the reserved "total"
	// key.
	RequestID     string           `json:"request_id,omitempty"`
	AttributionUS map[string]int64 `json:"attribution_us,omitempty"`
}

func (e *envelope) env() *envelope { return e }

// personalizeResponse is the body of a /personalize answer; /execute embeds
// it.
type personalizeResponse struct {
	SQL            string       `json:"sql"`
	Preferences    []string     `json:"preferences"`
	PreferenceDois []float64    `json:"preference_dois"`
	Solution       solutionJSON `json:"solution"`
	SupremeCostMS  float64      `json:"supreme_cost_ms"`
	ProfileID      string       `json:"profile_id,omitempty"`
	ProfileVersion uint64       `json:"profile_version,omitempty"`
	envelope
}

// rowJSON is one ranked answer row.
type rowJSON struct {
	Values  []string `json:"values"`
	Doi     float64  `json:"doi"`
	Matched int      `json:"matched"`
}

// executeResponse is the body of a /execute answer.
type executeResponse struct {
	personalizeResponse
	Rows       []rowJSON `json:"rows"`
	RowCount   int       `json:"row_count"`  // rows returned (≤ limit)
	TotalRows  int       `json:"total_rows"` // rows the query produced
	BlockReads int64     `json:"block_reads"`
	ExecMS     float64   `json:"exec_ms"`
}

// frontRequest is the body of POST /front.
type frontRequest struct {
	common
	CmaxMS    float64 `json:"cmax_ms"`
	Smin      float64 `json:"smin"`
	Smax      float64 `json:"smax"`
	MaxPoints int     `json:"max_points"`
	K         int     `json:"k"`
	Budget    int     `json:"budget"` // per-solve state budget; exhausting it sets truncated
}

type frontPointJSON struct {
	Preferences []string `json:"preferences"`
	Doi         float64  `json:"doi"`
	CostMS      float64  `json:"cost_ms"`
	SizeRows    float64  `json:"size_rows"`
	Knee        bool     `json:"knee,omitempty"`
}

type frontResponse struct {
	Points []frontPointJSON `json:"points"`
	// Truncated reports that the frontier search hit its state budget —
	// the menu is best-found, not proven complete.
	Truncated bool `json:"truncated,omitempty"`
	envelope
}

// topkRequest is the body of POST /topk.
type topkRequest struct {
	common
	CmaxMS float64 `json:"cmax_ms"`
	K      int     `json:"k"`     // answers wanted (default 10)
	MaxK   int     `json:"max_k"` // preferences considered
}

type topkResponse struct {
	Answers []rowJSON `json:"answers"`
	envelope
}

// errorBody is the one error envelope every endpoint speaks:
// {"error":{"class":"...","message":"..."}}. Class is a stable,
// machine-distinguishable token per failure kind; Message is for humans.
type errorBody struct {
	Class   string `json:"class"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

// errNoProfile marks a request naming a stored profile that does not exist.
var errNoProfile = errors.New("server: no profile")

// statusWriter captures the response code for per-endpoint metrics, whether
// the header went out (panic recovery must not write a second one), when the
// first byte went out (everything after it is the encode phase), and the
// error message the handler answered with (writeError records it for the
// flight recorder).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	first time.Time
	err   string
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.first = time.Now()
	}
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.first = time.Now()
	}
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the full request observability surface:
// request-ID minting (honoring a sanitized incoming X-Request-ID, echoed on
// the response), a flight record carried through the context, per-endpoint
// and per-phase latency histograms, the flight recorder (and through it
// /slo), the structured request log, the slow-query log, and panic
// recovery — a panic that escapes the handler (the server.cache injection
// point's panic mode fires on this goroutine) becomes a counted 500 instead
// of a torn connection with no metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rec := obs.NewRequest(endpoint, id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r = r.WithContext(obs.ContextWithRequest(r.Context(), rec))
		defer func() {
			if rc := recover(); rc != nil {
				s.reg.Counter("server_panics_total", "endpoint", endpoint).Inc()
				if !sw.wrote {
					sw.code = http.StatusInternalServerError
					writeError(sw, http.StatusInternalServerError, "internal",
						fmt.Sprintf("server: recovered panic: %v", rc))
				}
				if sw.err == "" {
					sw.err = fmt.Sprintf("server: recovered panic: %v", rc)
				}
			}
			if !sw.first.IsZero() {
				rec.AddPhase(obs.PhaseEncode, time.Since(sw.first))
			}
			rec.Finish(sw.code, sw.err)
			s.finishRequest(endpoint, rec)
		}()
		h(sw, r)
	}
}

// finishRequest fans a sealed flight record out to every observability
// sink: request and per-phase histograms, the flight recorder (whose ring
// /slo summarizes), the request log, and the slow-query log.
func (s *Server) finishRequest(endpoint string, rec *obs.Request) {
	snap := rec.Snapshot()
	total := time.Duration(snap.TotalUS) * time.Microsecond
	s.reg.Counter("server_requests_total",
		"endpoint", endpoint, "code", strconv.Itoa(snap.Status)).Inc()
	s.reg.Histogram("server_request_ms", obs.DurationBucketsMS, "endpoint", endpoint).
		Observe(float64(total) / float64(time.Millisecond))
	for phase, us := range snap.PhasesUS {
		s.reg.Histogram("server_phase_ms", obs.DurationBucketsMS,
			"endpoint", endpoint, "phase", phase).Observe(float64(us) / 1000)
	}
	s.flight.Add(rec)
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	if snap.Status >= 500 {
		level = slog.LevelError
	}
	attrs := []slog.Attr{
		slog.String("id", snap.ID),
		slog.String("endpoint", endpoint),
		slog.Int("status", snap.Status),
		slog.Float64("total_ms", float64(snap.TotalUS)/1000),
	}
	if snap.Profile != "" {
		attrs = append(attrs, slog.String("profile", snap.Profile))
	}
	if snap.Role != "" {
		attrs = append(attrs, slog.String("role", snap.Role))
	}
	if snap.Rung != "" {
		attrs = append(attrs, slog.String("rung", snap.Rung))
	}
	if snap.Error != "" {
		attrs = append(attrs, slog.String("error", snap.Error))
	}
	s.log.LogAttrs(context.Background(), level, "request", attrs...)
	if s.cfg.SlowLog > 0 && total >= s.cfg.SlowLog {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
			slog.String("id", snap.ID),
			slog.String("endpoint", endpoint),
			slog.Float64("total_ms", float64(snap.TotalUS)/1000),
			slog.Any("phases_us", snap.PhasesUS))
	}
}

// profileLabel renders the profile identity a flight record carries.
func profileLabel(id string, version uint64) string {
	if id == "" {
		return "inline"
	}
	var buf [64]byte
	return string(strconv.AppendUint(append(append(buf[:0], id...), '@'), version, 10))
}

// attribution renders a flight record's response-embedded view: the request
// ID and the per-phase microsecond map, with the wall time so far under the
// reserved "total" key. Built before the response is encoded, so the encode
// phase appears only in the final flight record.
func attribution(rec *obs.Request) (string, map[string]int64) {
	if rec == nil {
		return "", nil
	}
	id, total, phases := rec.Attribution()
	out := make(map[string]int64, len(phases)+1)
	for name, d := range phases {
		out[name] = d.Microseconds()
	}
	out["total"] = total.Microseconds()
	return id, out
}

// encodeJSON is the one rendering of a JSON body: HTML escaping off, a
// trailing newline. Nothing reaches w when v cannot be encoded.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = encodeJSON(w, v) // an error is the client gone
}

// statusClass names the failure class for a status code — the stable token
// clients branch on; a status not listed is plain "error".
var statusClass = map[int]string{
	http.StatusBadRequest:            "bad_request",
	http.StatusNotFound:              "not_found",
	http.StatusRequestEntityTooLarge: "payload_too_large",
	http.StatusUnprocessableEntity:   "infeasible",
	http.StatusTooManyRequests:       "saturated",
	http.StatusInternalServerError:   "internal",
	http.StatusServiceUnavailable:    "unavailable",
	http.StatusGatewayTimeout:        "timeout",
}

// writeError emits the error envelope. When the writer is the instrumented
// statusWriter the message is kept for the request's flight record.
func writeError(w http.ResponseWriter, code int, class, msg string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.err = msg
	}
	writeJSON(w, code, errorResponse{Error: errorBody{Class: class, Message: msg}})
}

// errorStatus is the one error → (status, class) mapping, for every endpoint
// and for batch items alike. An error that names its own failure kind fixes
// the status wherever it surfaces — an oversized body (however deep http's
// wrapping buried it) is 413, an exhausted degradation ladder 503 under its
// own class: "we tried every quality level", as opposed to plain
// unavailability. Anything else takes the caller's fallback; a caller
// mistake is 400.
func errorStatus(err error, fallback int) (int, string) {
	var mbe *http.MaxBytesError
	code := fallback
	switch {
	case errors.As(err, &mbe):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSaturated):
		code = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, ErrShuttingDown), errors.Is(err, context.Canceled), errors.Is(err, errDurability):
		code = http.StatusServiceUnavailable
	case errors.Is(err, cqp.ErrInfeasible):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrExhausted):
		return http.StatusServiceUnavailable, "degraded_unavailable"
	case transientFault(err), errors.Is(err, storage.ErrRead), errors.Is(err, iter.ErrSpill):
		code = http.StatusInternalServerError
	case errors.Is(err, errNoProfile):
		code = http.StatusNotFound
	}
	if class, ok := statusClass[code]; ok {
		return code, class
	}
	return code, "error"
}

// fail answers with the error envelope errorStatus picks; a shed request
// also tells the client when to come back.
func (s *Server) fail(w http.ResponseWriter, fallback int, err error) {
	code, class := errorStatus(err, fallback)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, code, class, err.Error())
}

// decodeJSON parses the bounded request body into v: one JSON value and
// nothing after it but whitespace. In a cluster it also returns the body's
// bytes, which route forwards when another node owns the profile.
// Standalone the body streams into the decoder and nothing is kept.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) ([]byte, error) {
	var body []byte
	var src io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if s.cluster != nil {
		var err error
		if body, err = io.ReadAll(src); err != nil {
			return nil, err
		}
		src = bytes.NewReader(body)
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("server: request body has data after its JSON value")
	}
	return body, nil
}

// requestContext derives the per-request deadline (request value, capped by
// the server max; the server default when absent). The pipeline's spans
// hang under the flight record's root, which the parent carries.
func (s *Server) requestContext(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(parent, d)
	if s.cfg.SpillBytes > 0 {
		ctx = iter.WithBudget(ctx, iter.Budget{Bytes: s.cfg.SpillBytes, Dir: s.cfg.SpillDir})
	}
	return ctx, cancel
}

// buildOpts translates request knobs into Personalize options. A state
// budget request ≤ 0 keeps the server default — a serving daemon never
// grants the unlimited paper-faithful search.
func buildOpts(alg string, k, budget int, anyMatch, merge bool) []cqp.Option {
	var opts []cqp.Option
	if alg != "" {
		opts = append(opts, cqp.WithAlgorithm(alg))
	}
	if k > 0 {
		opts = append(opts, cqp.WithMaxK(k))
	}
	if budget > 0 {
		opts = append(opts, cqp.WithStateBudget(budget))
	}
	if anyMatch {
		opts = append(opts, cqp.WithAnyMatch())
	}
	if merge {
		opts = append(opts, cqp.WithMergedSubQueries())
	}
	return opts
}

func personalizeResponseFrom(res *cqp.Result, profileID string, version uint64) *personalizeResponse {
	return &personalizeResponse{
		SQL:            res.SQL,
		Preferences:    res.Preferences,
		PreferenceDois: res.PreferenceDois,
		Solution: solutionJSON{
			Doi:           res.Solution.Doi,
			CostMS:        res.Solution.Cost,
			SizeRows:      res.Solution.Size,
			Algorithm:     res.Solution.Stats.Algorithm,
			StatesVisited: res.Solution.Stats.StatesVisited,
			Truncated:     res.Solution.Stats.Truncated,
			DurationUS:    res.Solution.Stats.Duration.Microseconds(),
		},
		SupremeCostMS:  res.Supreme,
		ProfileID:      profileID,
		ProfileVersion: version,
	}
}

// profileJSON is the single-profile response shape. StaleReplica marks an
// answer served from a follower's replicated snapshot during failover —
// correct as of the last replicated mutation, possibly behind the
// unreachable owner.
type profileJSON struct {
	ID           string    `json:"id"`
	Version      uint64    `json:"version"`
	Preferences  int       `json:"preferences"`
	Text         string    `json:"text,omitempty"`
	UpdatedAt    time.Time `json:"updated_at"`
	StaleReplica bool      `json:"stale_replica,omitempty"`
}

// handleProfilePut serves PUT /profiles/{id}: the body is the profile in
// the text format (one "doi(<condition>) = <number>" per line). A
// replacement bumps the version, which is in every dependent result's key:
// the next request for one misses and its fill replaces the old answer.
// With a durable store the mutation is in the write-ahead log before the
// 200 goes out; a failed append is a 503 and the store is unchanged.
func (s *Server) handleProfilePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if local, _ := s.route(w, r, true, id, body); !local {
		return
	}
	sp, err := s.store.Put(id, string(body))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, profileJSON{
		ID: sp.ID, Version: sp.Version, Preferences: sp.Profile.Len(), UpdatedAt: sp.UpdatedAt,
	})
}

func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	local, replica := s.route(w, r, false, id, nil)
	if !local {
		return
	}
	sp, stale, ok := s.profile(id, replica)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("server: no profile %q", id))
		return
	}
	writeJSON(w, http.StatusOK, profileJSON{
		ID: sp.ID, Version: sp.Version, Preferences: sp.Profile.Len(),
		Text: sp.Text, UpdatedAt: sp.UpdatedAt, StaleReplica: stale,
	})
}

func (s *Server) handleProfileDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if local, _ := s.route(w, r, true, id, nil); !local {
		return
	}
	ok, err := s.store.Delete(id)
	if errors.Is(err, errDurability) {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("server: no profile %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleProfileList serves GET /profiles. The "profiles" array is always
// sorted by id ascending (bytewise), so the listing is deterministic
// across calls, restarts, and recovery — clients may diff successive
// listings without reordering them.
func (s *Server) handleProfileList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"profiles": s.store.List()})
}

// handleRefresh serves POST /refresh: rebuild catalog statistics after a
// bulk load. The statistics generation is in every result's key, so each
// remembered answer is superseded at once; the fill that follows a miss
// replaces it.
func (s *Server) handleRefresh(w http.ResponseWriter, _ *http.Request) {
	if err := s.p.Refresh(); err != nil {
		// A failed statistics scan (persistent backend read error) leaves
		// the previous statistics serving; surface the failure instead of
		// pretending the generation advanced.
		writeError(w, http.StatusInternalServerError, "refresh_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": s.p.Generation()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// A daemon still replaying its write-ahead log is not serving the
	// profiles it acked before the crash; report 503 until recovery
	// completes so load balancers hold traffic.
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "recovering",
		})
		return
	}
	body := map[string]any{
		"status":        "ok",
		"uptime_ms":     time.Since(s.start).Milliseconds(),
		"profiles":      s.store.Len(),
		"generation":    s.p.Generation(),
		"queue_depth":   s.reg.Gauge("server_queue_depth").Value(),
		"cache_entries": s.cache.Len(),
		"backend":       s.cfg.Backend,
	}
	if s.cluster != nil {
		// role + per-peer replication lag: the cluster block carries each
		// follower's queued-plus-unacked record count and reachability.
		body["role"] = "member"
		body["cluster"] = s.cluster.Status()
	} else {
		body["role"] = "standalone"
	}
	if l := s.store.WAL(); l != nil {
		st := l.Stats()
		body["wal"] = map[string]any{
			"log_bytes":              st.LogBytes,
			"records_since_snapshot": st.RecordsSinceSnapshot,
			"last_snapshot_age_ms":   time.Since(st.LastSnapshot).Milliseconds(),
			"clock":                  s.store.clock.Load(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.reg.CollectRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
