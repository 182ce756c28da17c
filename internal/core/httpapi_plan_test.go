package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/plan"
)

// planFixture serves a bootstrapped runtime through a planner with the given
// limits. Returns the server plus the runtime and its fixture companions so
// tests can race direct mutations against HTTP planning.
func planFixture(t *testing.T, cfg plan.Config) (*httptest.Server, *Runtime, []placement.Instance, []placement.Instance, time.Time) {
	t.Helper()
	rt, placed, held, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd }
	planner, err := plan.NewService(rt.PlanSnapshot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HTTPHandlerWithPlanner(rt, planner, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)
	return srv, rt, placed, held, trainEnd
}

func TestHTTPPlanQueries(t *testing.T) {
	srv, rt, placed, _, _ := planFixture(t, plan.Config{})
	client := srv.Client()
	url := srv.URL + "/v1/plan"
	leaf := rt.Tree().Leaves()[0].Name

	post := func(body string) *plan.Result {
		t.Helper()
		resp := postJSON(t, client, url, body)
		if resp.StatusCode != http.StatusOK {
			code, msg := decodeEnvelope(t, resp)
			t.Fatalf("POST %s = %d (%s: %s)", body, resp.StatusCode, code, msg)
		}
		var res plan.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return &res
	}

	res := post(`{"kind":"replace_service","service":"` + placed[0].Service + `"}`)
	if res.Kind != plan.KindReplaceService || res.Replaced == 0 || res.Policy != "asynchrony" {
		t.Fatalf("replace_service result = %+v", res)
	}
	if res.Before.SumOfLeafPeaksWatts <= 0 || len(res.After.Fragmentation) == 0 {
		t.Fatalf("replace_service reports incomplete: %+v", res)
	}

	res = post(`{"kind":"add_instances","archetype":"` + placed[0].Service + `","count":2}`)
	if res.Kind != plan.KindAddInstances || res.Admitted+res.Rejected != 2 {
		t.Fatalf("add_instances result = %+v", res)
	}

	res = post(`{"kind":"trip_breaker","node":"` + leaf + `","budget_fraction":0.5}`)
	if res.Kind != plan.KindTripBreaker || res.Trip == nil || !res.Trip.Applied {
		t.Fatalf("trip_breaker result = %+v", res)
	}
}

func TestHTTPPlanErrors(t *testing.T) {
	srv, _, _, _, _ := planFixture(t, plan.Config{})
	client := srv.Client()
	url := srv.URL + "/v1/plan"

	cases := []struct {
		name, body, wantCode string
		wantStatus           int
	}{
		{"missing kind", `{}`, "bad_request", http.StatusBadRequest},
		{"unknown kind", `{"kind":"explode"}`, "bad_request", http.StatusBadRequest},
		{"bad fraction", `{"kind":"trip_breaker","node":"dc","budget_fraction":2}`, "bad_request", http.StatusBadRequest},
		{"overflowing duration", `{"kind":"trip_breaker","node":"dc","start":"2016-08-01T00:00:00Z","duration_seconds":1e10}`, "bad_request", http.StatusBadRequest},
		{"unknown service", `{"kind":"replace_service","service":"no-such"}`, "unknown_service", http.StatusNotFound},
		{"unknown archetype", `{"kind":"add_instances","archetype":"no-such","count":1}`, "unknown_service", http.StatusNotFound},
		{"unknown node", `{"kind":"trip_breaker","node":"no/such/node"}`, "unknown_node", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := postJSON(t, client, url, tc.body)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if code, _ := decodeEnvelope(t, resp); code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q", tc.name, code, tc.wantCode)
		}
	}

	// GET is not allowed on /v1/plan.
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPPlanNotPlaced pins the 409 envelope for planning against a runtime
// that has never bootstrapped.
func TestHTTPPlanNotPlaced(t *testing.T) {
	rt, _, _, trainEnd := runtimeFixture(t)
	clock := func() time.Time { return trainEnd }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)

	resp := postJSON(t, srv.Client(), srv.URL+"/v1/plan", `{"kind":"replace_service","service":"x"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("plan before bootstrap = %d, want 409", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "not_placed" {
		t.Fatalf("code = %q, want not_placed", code)
	}
}

// TestHTTPBodyHardening pins the request-body bugfix sweep on every mutating
// route: the 1 MiB cap (413), unknown fields (400) and trailing data after
// the first JSON value (400) — the latter used to be silently accepted.
func TestHTTPBodyHardening(t *testing.T) {
	srv, _, _, held, _ := planFixture(t, plan.Config{})
	client := srv.Client()

	oversized := `{"id":"` + strings.Repeat("x", 1<<20) + `","service":"y"}`
	routes := []struct{ name, url, ok string }{
		{"instances", srv.URL + "/v1/instances", `{"id":"` + held[0].ID + `","service":"` + held[0].Service + `"}`},
		{"plan", srv.URL + "/v1/plan", `{"kind":"replace_service","service":"x"}`},
	}
	for _, route := range routes {
		resp := postJSON(t, client, route.url, oversized)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized: status = %d, want 413", route.name, resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != "request_too_large" {
			t.Errorf("%s oversized: code = %q, want request_too_large", route.name, code)
		}

		resp = postJSON(t, client, route.url, `{"bogus_field":1}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s unknown field: status = %d, want 400", route.name, resp.StatusCode)
		}
		if code, msg := decodeEnvelope(t, resp); code != "bad_request" || !strings.Contains(msg, "unknown field") {
			t.Errorf("%s unknown field: got %q/%q", route.name, code, msg)
		}

		resp = postJSON(t, client, route.url, route.ok+` {"second":"value"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s trailing JSON: status = %d, want 400", route.name, resp.StatusCode)
		}
		if code, msg := decodeEnvelope(t, resp); code != "bad_request" || !strings.Contains(msg, "trailing") {
			t.Errorf("%s trailing JSON: got %q/%q", route.name, code, msg)
		}

		resp = postJSON(t, client, route.url, route.ok+` garbage`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s trailing garbage: status = %d, want 400", route.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHTTPPlanShedRetryAfter parks one query inside the planner (via a
// blocking snapshot source) and pins that the next query is shed with the
// 429 envelope and a positive Retry-After hint.
func TestHTTPPlanShedRetryAfter(t *testing.T) {
	rt, _, _, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd }
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	planner, err := plan.NewService(func() (*plan.Snapshot, error) {
		entered <- struct{}{}
		<-block
		return rt.PlanSnapshot()
	}, plan.Config{MaxInFlight: 1, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HTTPHandlerWithPlanner(rt, planner, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)
	client := srv.Client()
	url := srv.URL + "/v1/plan"
	body := `{"kind":"trip_breaker","node":"` + rt.Tree().Name + `","budget_fraction":0.9}`

	done := make(chan int, 1)
	go func() {
		resp := postJSON(t, client, url, body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered // the only slot is now held by the parked query

	resp := postJSON(t, client, url, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent query = %d, want 429", resp.StatusCode)
	}
	retry := resp.Header.Get("Retry-After")
	if secs, err := time.ParseDuration(retry + "s"); err != nil || secs < time.Second {
		t.Fatalf("Retry-After = %q, want a positive whole-second hint", retry)
	}
	if code, _ := decodeEnvelope(t, resp); code != "overloaded" {
		t.Fatalf("shed code = %q, want overloaded", code)
	}

	close(block)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("parked query = %d, want 200", status)
	}
	// The slot has drained: the planner admits queries again.
	resp = postJSON(t, client, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPPlanDeadline(t *testing.T) {
	srv, _, placed, _, _ := planFixture(t, plan.Config{Deadline: time.Nanosecond})
	resp := postJSON(t, srv.Client(), srv.URL+"/v1/plan",
		`{"kind":"replace_service","service":"`+placed[0].Service+`"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nanosecond deadline = %d, want 503", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "deadline_exceeded" {
		t.Fatalf("code = %q, want deadline_exceeded", code)
	}
}

// encodePlanBody reproduces writeJSONStatus's encoding (two-space indent plus
// the encoder's trailing newline), so oracle results can be compared against
// raw HTTP bodies byte for byte.
func encodePlanBody(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestHTTPPlanFrozenSnapshotRace is the isolation acceptance test: concurrent
// /v1/plan queries race Tick and AdmitInstance on the live runtime, while the
// planner serves a snapshot frozen before the churn. Every HTTP response must
// be byte-identical to a serial oracle evaluation of the same query on that
// frozen snapshot (computed at workers=1; the service runs at the default
// worker count, set to 8 here, so this also pins worker-count independence).
// Run with -race.
func TestHTTPPlanFrozenSnapshotRace(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "8")
	rt, placed, held, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd }
	snap, err := rt.PlanSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewService(func() (*plan.Snapshot, error) { return snap, nil },
		plan.Config{MaxInFlight: 64, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HTTPHandlerWithPlanner(rt, planner, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)
	client := srv.Client()
	url := srv.URL + "/v1/plan"

	queries := []plan.Query{
		{Kind: plan.KindReplaceService, Service: placed[0].Service},
		{Kind: plan.KindAddInstances, Archetype: placed[0].Service, Count: 2},
		{Kind: plan.KindTripBreaker, Node: rt.Tree().Leaves()[0].Name, BudgetFraction: 0.5},
	}
	oracle := make([]string, len(queries))
	bodies := make([]string, len(queries))
	for i, q := range queries {
		res, err := snap.Evaluate(t.Context(), q, 1)
		if err != nil {
			t.Fatalf("oracle %s: %v", q.Kind, err)
		}
		oracle[i] = encodePlanBody(t, res)
		raw, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(raw)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)

	// Churn the live runtime: admissions, retirements, and a re-optimizing
	// tick, all of which invalidate the runtime's own snapshot cache — but
	// must never reach into the frozen snapshot the planner serves.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, h := range held {
			_, _ = rt.AdmitInstance(h.ID, h.Service, trainEnd, 2)
		}
		for _, h := range held {
			_, _ = rt.RetireInstance(h.ID)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0); err != nil {
				errs <- "tick: " + err.Error()
				return
			}
		}
	}()

	const requesters = 6
	for g := 0; g < requesters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range queries {
					resp, err := client.Post(url, "application/json", strings.NewReader(bodies[i]))
					if err != nil {
						errs <- "post: " + err.Error()
						return
					}
					var got bytes.Buffer
					if _, err := got.ReadFrom(resp.Body); err != nil {
						errs <- "read: " + err.Error()
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- "status " + resp.Status + ": " + got.String()
						return
					}
					if got.String() != oracle[i] {
						errs <- "response for " + queries[i].Kind + " diverged from the frozen-snapshot oracle"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
