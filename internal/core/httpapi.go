package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
)

// HTTPHandlerWithPlanner exposes a runtime's state over HTTP for
// dashboards and debugging. The API is versioned under /v1/:
//
//	GET    /v1/health          — liveness plus degradation state: ok|degraded,
//	                             quarantined instances, active trip windows,
//	                             emergency-capped nodes
//	GET    /v1/status          — placement summary: instance count, leaves,
//	                             tick count
//	GET    /v1/tree            — the placed power tree as JSON
//	                             (powertree.Save format)
//	GET    /v1/history         — drift reports from every tick
//	GET    /v1/metrics         — the obs registry in Prometheus text format
//	GET    /v1/fragmentation   — per-level stranded-headroom rows: power
//	                             first, then one row per (level, capacity
//	                             dimension) wherever the tree declares
//	                             non-power capacities; "overcommitted"
//	                             counts the row's nodes used past capacity
//	POST   /v1/instances       — admit one instance via online placement;
//	                             body {"id","service"} plus optional
//	                             "as_of" (RFC 3339), "train_weeks", and
//	                             "demands" (a {dimension: amount} resource
//	                             vector checked against node capacities);
//	                             "train_weeks" may not exceed the store's
//	                             retention
//	DELETE /v1/instances/{id}  — retire a placed instance; {id} is one
//	                             path segment, escaped ("a%2Fb" for "a/b",
//	                             "%2E" for ".")
//	POST   /v1/plan            — evaluate a what-if query (plan.Query) on a
//	                             snapshot of the current placement; kinds:
//	                             replace_service, add_instances, trip_breaker
//
// Errors are a uniform JSON envelope: {"error":{"code":..,"message":..}}.
// Unknown paths get the envelope with code "not_found"; disallowed methods
// get code "method_not_allowed" plus an Allow header. Request bodies on
// mutating routes are capped at maxRequestBody (413 "request_too_large"
// beyond it) and decoded strictly: unknown fields and trailing data after
// the first JSON value are 400 "bad_request". Queries shed by the planner's
// in-flight limit get 429 "overloaded" with a Retry-After hint; queries (or
// admissions) cut off by a deadline get 503 "deadline_exceeded".
//
// The GET surface is read-only; /v1/instances mutates the placement through
// the runtime's serialized admission path. Ingestion and ticking stay with
// the owner.
//
// now stamps /v1/health and /v1/status, which keeps the deterministic
// pipeline free of ambient time reads: the daemon passes the wall clock,
// tests a fixed one. /v1/metrics serves reg, and the API's own request/error
// counters register there. planner answers /v1/plan (the daemon builds it
// from its -plan-max-inflight and -plan-deadline flags; tests pin tiny
// limits to exercise shedding).
func HTTPHandlerWithPlanner(rt *Runtime, planner *plan.Service, now func() time.Time, reg *obs.Registry) http.Handler {
	api := &httpAPI{
		rt:      rt,
		planner: planner,
		requests: reg.Counter("smoothop_http_requests_total",
			"HTTP API requests received."),
		errors: reg.Counter("smoothop_http_errors_total",
			"HTTP API requests rejected or failed while encoding the response."),
	}

	health := func(w http.ResponseWriter, r *http.Request) {
		quarantined := rt.Quarantined()
		emergency := rt.EmergencyNodes()
		trips := rt.ActiveTrips()
		view := struct {
			Status      string     `json:"status"`
			Placed      bool       `json:"placed"`
			Quarantined []string   `json:"quarantined"`
			ActiveTrips []tripView `json:"active_trips"`
			Emergency   []string   `json:"emergency_nodes"`
			Time        time.Time  `json:"time"`
		}{
			Status:      "ok",
			Placed:      rt.Placed(),
			Quarantined: quarantined,
			ActiveTrips: make([]tripView, 0, len(trips)),
			Emergency:   emergency,
			Time:        now().UTC(),
		}
		if len(quarantined) > 0 || len(emergency) > 0 || len(trips) > 0 {
			view.Status = "degraded"
		}
		for _, tp := range trips {
			view.ActiveTrips = append(view.ActiveTrips, tripView{
				Node:           tp.Node,
				Start:          tp.Start.UTC(),
				Until:          tp.Start.Add(tp.Duration).UTC(),
				BudgetFraction: tp.Budget(),
			})
		}
		api.writeJSON(w, view)
	}
	status := func(w http.ResponseWriter, r *http.Request) {
		st := rt.status()
		view := struct {
			Placed      bool      `json:"placed"`
			Instances   int       `json:"instances"`
			Leaves      int       `json:"leaves"`
			Ticks       int       `json:"ticks"`
			Quarantined int       `json:"quarantined"`
			LastTick    *tickView `json:"last_tick,omitempty"`
			Time        time.Time `json:"time"`
		}{
			Placed:      st.placed,
			Instances:   st.instances,
			Leaves:      st.leaves,
			Ticks:       st.ticks,
			Quarantined: st.quarantined,
			Time:        now().UTC(),
		}
		if st.lastTick != nil {
			view.LastTick = newTickView(st.lastTick)
		}
		api.writeJSON(w, view)
	}
	treeH := func(w http.ResponseWriter, r *http.Request) {
		// Render into a buffer first: writing the response body before a
		// failure would lock in a 200 status with truncated JSON.
		var buf bytes.Buffer
		if err := rt.saveTree(&buf); err != nil {
			api.writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	}
	history := func(w http.ResponseWriter, r *http.Request) {
		reports := rt.History()
		views := make([]*tickView, len(reports))
		for i, rep := range reports {
			views[i] = newTickView(rep)
		}
		api.writeJSON(w, views)
	}
	metrics := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = reg.WriteProm(w)
	}
	fragmentation := func(w http.ResponseWriter, r *http.Request) {
		rows, err := rt.MultiFragmentationRates()
		if err != nil {
			api.writeFailure(w, err)
			return
		}
		views := make([]fragRowView, len(rows))
		for i, row := range rows {
			views[i] = fragRowView{
				Level:         row.Level.String(),
				Dimension:     row.Dimension,
				Capacity:      row.Capacity,
				Headroom:      row.Headroom,
				Overcommitted: row.Overcommitted,
				Admissible:    row.Admissible,
				Stranded:      row.StrandedWatts,
				RatePct:       row.RatePct,
			}
		}
		api.writeJSON(w, views)
	}

	admit := func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			ID         string                   `json:"id"`
			Service    string                   `json:"service"`
			AsOf       string                   `json:"as_of"`
			TrainWeeks int                      `json:"train_weeks"`
			Demands    powertree.ResourceVector `json:"demands"`
		}
		if !api.decodeBody(w, r, &body) {
			return
		}
		if body.ID == "" || body.Service == "" {
			api.writeError(w, http.StatusBadRequest, "bad_request", `body needs "id" and "service"`)
			return
		}
		// No "as_of" means "the runtime's own clock" (its latest
		// Bootstrap/Tick time) — NOT the wall clock, which on a replay
		// daemon sits far outside the stored telemetry window.
		var asOf time.Time
		if body.AsOf != "" {
			parsed, err := time.Parse(time.RFC3339, body.AsOf)
			if err != nil {
				api.writeError(w, http.StatusBadRequest, "bad_request", `"as_of" must be RFC 3339: `+err.Error())
				return
			}
			asOf = parsed
		}
		if body.TrainWeeks < 0 {
			api.writeError(w, http.StatusBadRequest, "bad_request", `"train_weeks" must not be negative`)
			return
		}
		leaf, err := rt.Admit(AdmitRequest{
			ID:         body.ID,
			Service:    body.Service,
			AsOf:       asOf,
			TrainWeeks: body.TrainWeeks,
			Demands:    body.Demands,
		})
		if err != nil {
			api.writeFailure(w, err)
			return
		}
		api.writeJSONStatus(w, http.StatusCreated, instanceView{ID: body.ID, Leaf: leaf})
	}
	planH := func(w http.ResponseWriter, r *http.Request) {
		var q plan.Query
		if !api.decodeBody(w, r, &q) {
			return
		}
		res, err := planner.Evaluate(r.Context(), q)
		if err != nil {
			api.writeFailure(w, err)
			return
		}
		api.writeJSON(w, res)
	}

	retire := func(w http.ResponseWriter, r *http.Request) {
		// The id is one escaped path segment, so an admitted "a/b" retires
		// at /v1/instances/a%2Fb.
		seg := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/instances/")
		id, err := url.PathUnescape(seg)
		if err != nil || id == "" || strings.Contains(seg, "/") {
			api.writeError(w, http.StatusNotFound, "not_found", "unknown path "+r.URL.Path)
			return
		}
		leaf, err := rt.RetireInstance(id)
		if err != nil {
			api.writeFailure(w, err)
			return
		}
		api.writeJSON(w, instanceView{ID: id, Leaf: leaf})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/health", api.get(health))
	mux.HandleFunc("/v1/status", api.get(status))
	mux.HandleFunc("/v1/tree", api.get(treeH))
	mux.HandleFunc("/v1/history", api.get(history))
	mux.HandleFunc("/v1/metrics", api.get(metrics))
	mux.HandleFunc("/v1/fragmentation", api.get(fragmentation))
	mux.HandleFunc("/v1/instances", api.method(http.MethodPost, admit))
	mux.HandleFunc("/v1/instances/", api.method(http.MethodDelete, retire))
	mux.HandleFunc("/v1/plan", api.method(http.MethodPost, planH))
	// Everything else: the error envelope, not the mux's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.requests.Inc()
		api.writeError(w, http.StatusNotFound, "not_found", "unknown path "+r.URL.Path)
	})
	return mux
}

// httpAPI bundles the runtime with the API's own instrumentation.
type httpAPI struct {
	rt       *Runtime
	planner  *plan.Service
	requests *obs.Counter
	errors   *obs.Counter
}

// maxRequestBody caps every mutating request's body. 1 MiB is orders of
// magnitude above any legitimate admission or plan query, and small enough
// that a hostile client cannot make a handler buffer arbitrary data.
const maxRequestBody = 1 << 20

// get wraps a handler with request counting and the GET-only method check.
func (a *httpAPI) get(h http.HandlerFunc) http.HandlerFunc {
	return a.method(http.MethodGet, h)
}

// method wraps a handler with request counting, a single-method check —
// anything else gets the 405 envelope plus an Allow header — and, for
// mutating methods, the request-body cap: every byte past maxRequestBody
// surfaces as *http.MaxBytesError wherever the handler reads the body.
func (a *httpAPI) method(allow string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a.requests.Inc()
		if r.Method != allow {
			w.Header().Set("Allow", allow)
			a.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				r.Method+" is not allowed; use "+allow)
			return
		}
		if allow != http.MethodGet && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		}
		h(w, r)
	}
}

// decodeBody strictly decodes a request body into dst: unknown fields are
// rejected, as is any trailing data after the first JSON value (so
// `{"id":"x"} garbage` no longer passes), and a body past the cap becomes
// the 413 envelope. Returns false after writing the error response.
func (a *httpAPI) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		a.writeDecodeError(w, err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		if err != nil && !isSyntaxish(err) {
			// A read failure (body cap, broken connection) rather than
			// genuine trailing content.
			a.writeDecodeError(w, err)
			return false
		}
		a.writeError(w, http.StatusBadRequest, "bad_request",
			"request body must be a single JSON value with no trailing data")
		return false
	}
	return true
}

// isSyntaxish reports whether a decode failure describes malformed JSON
// content (as opposed to an I/O failure while reading the body).
func isSyntaxish(err error) bool {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syn) || errors.As(err, &typ)
}

// writeDecodeError maps a body-decode failure onto the envelope: the body
// cap is 413 "request_too_large", everything else 400 "bad_request".
func (a *httpAPI) writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		a.writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	a.writeError(w, http.StatusBadRequest, "bad_request", "decoding body: "+err.Error())
}

// failureCodes maps each sentinel a /v1 handler's call can fail with onto
// its status and error code; the first match wins. Admission, retirement
// and fragmentation calls see the core, placement and powertree sentinels,
// /v1/plan the plan ones; ErrNotPlaced and the context errors reach both.
// The table is one for every route: a placement sentinel that a plan query
// wraps maps as it does on /v1/instances.
var failureCodes = []struct {
	err    error
	status int
	code   string
}{
	{plan.ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
	{plan.ErrBadQuery, http.StatusBadRequest, "bad_request"},
	{plan.ErrUnknownService, http.StatusNotFound, "unknown_service"},
	{plan.ErrUnknownNode, http.StatusNotFound, "unknown_node"},
	{ErrNotPlaced, http.StatusConflict, "not_placed"},
	{placement.ErrAlreadyAdmitted, http.StatusConflict, "already_admitted"},
	{placement.ErrNoCapacity, http.StatusConflict, "no_capacity"},
	{placement.ErrUnknownInstance, http.StatusNotFound, "unknown_instance"},
	// A malformed demand vector or an over-long training window is the
	// caller's input, not server state.
	{powertree.ErrBadDimension, http.StatusBadRequest, "bad_request"},
	{powertree.ErrReservedPower, http.StatusBadRequest, "bad_request"},
	{ErrTrainWeeks, http.StatusBadRequest, "bad_request"},
	// No healthy trace in the requested window (e.g. an "as_of" far from
	// the stored telemetry): a conflict with the data, not a server bug.
	{ErrAllQuarantined, http.StatusConflict, "all_quarantined"},
	// A deadline or disconnect is the caller's (or the limiter's) doing,
	// not a server bug.
	{context.DeadlineExceeded, http.StatusServiceUnavailable, "deadline_exceeded"},
	{context.Canceled, http.StatusServiceUnavailable, "deadline_exceeded"},
}

// writeFailure maps a handler call's error onto the error envelope through
// failureCodes; any other error is 500 "internal". Shed plan queries carry
// a Retry-After hint sized to the planner's deadline: by then at least one
// in-flight slot must have freed.
func (a *httpAPI) writeFailure(w http.ResponseWriter, err error) {
	for _, f := range failureCodes {
		if !errors.Is(err, f.err) {
			continue
		}
		if f.err == plan.ErrOverloaded {
			w.Header().Set("Retry-After", strconv.Itoa(int(a.planner.RetryAfter()/time.Second)))
		}
		a.writeError(w, f.status, f.code, err.Error())
		return
	}
	a.writeError(w, http.StatusInternalServerError, "internal", err.Error())
}

// fragRowView is the wire form of one stranded-headroom row: one (level,
// dimension) pair, units following the dimension (watts for "power", the
// declared unit otherwise).
type fragRowView struct {
	Level         string  `json:"level"`
	Dimension     string  `json:"dimension"`
	Capacity      float64 `json:"capacity"`
	Headroom      float64 `json:"headroom"`
	Overcommitted int     `json:"overcommitted"`
	Admissible    float64 `json:"admissible"`
	Stranded      float64 `json:"stranded"`
	RatePct       float64 `json:"rate_pct"`
}

// instanceView is the wire form of an admission or retirement outcome.
type instanceView struct {
	ID   string `json:"id"`
	Leaf string `json:"leaf"`
}

// errorEnvelope is the uniform wire form of every API error.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeError emits the JSON error envelope and counts the failure.
func (a *httpAPI) writeError(w http.ResponseWriter, status int, code, message string) {
	a.errors.Inc()
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = message
	body, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		http.Error(w, message, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// writeJSON encodes v into a buffer before touching the response, so an
// encode failure can still produce a clean 500 instead of a 200 with a
// truncated body, and counts encode failures on the error counter.
func (a *httpAPI) writeJSON(w http.ResponseWriter, v interface{}) {
	a.writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with an explicit success status code.
func (a *httpAPI) writeJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		a.writeError(w, http.StatusInternalServerError, "internal", "encoding response failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// tripView is the wire form of an injected breaker-trip window.
type tripView struct {
	Node           string    `json:"node"`
	Start          time.Time `json:"start"`
	Until          time.Time `json:"until"`
	BudgetFraction float64   `json:"budget_fraction"`
}

// tickView is the wire form of a DriftReport. worst_score is omitted when
// worst_node is empty: no leaf could be scored and the report's +Inf has no
// JSON form.
type tickView struct {
	WorstNode          string   `json:"worst_node"`
	WorstScore         *float64 `json:"worst_score,omitempty"`
	SumOfPeaks         float64  `json:"sum_of_peaks"`
	Swaps              int      `json:"swaps"`
	SwappedIDs         []string `json:"swapped_ids,omitempty"`
	Quarantined        []string `json:"quarantined,omitempty"`
	BreakerTrips       int      `json:"breaker_trips,omitempty"`
	EmergencyThrottles int      `json:"emergency_throttles,omitempty"`
}

func newTickView(rep *DriftReport) *tickView {
	v := &tickView{
		WorstNode:          rep.WorstNode,
		SumOfPeaks:         rep.SumOfPeaks,
		Swaps:              len(rep.Swaps),
		Quarantined:        rep.Quarantined,
		BreakerTrips:       len(rep.BreakerTrips),
		EmergencyThrottles: len(rep.EmergencyThrottles),
	}
	if rep.WorstNode != "" {
		s := rep.WorstScore
		v.WorstScore = &s
	}
	for _, sw := range rep.Swaps {
		v.SwappedIDs = append(v.SwappedIDs, sw.InstanceA, sw.InstanceB)
	}
	sort.Strings(v.SwappedIDs)
	return v
}
