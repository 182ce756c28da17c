package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/powertree"
)

// heldOut is one instance the fixture kept out of Bootstrap for tests to
// admit over HTTP.
type heldOut struct{ ID, Service string }

// instancesFixture serves a bootstrapped runtime whose clock is pinned to
// the training end, so POST bodies without "as_of" resolve against real
// stored history. Returns the server, the registry, the held-out instances
// and the training end.
func instancesFixture(t *testing.T) (*httptest.Server, *obs.Registry, []heldOut, time.Time) {
	t.Helper()
	rt, _, held, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd }
	reg := obs.NewWithClock(clock)
	srv := httptest.NewServer(testHandler(t, rt, clock, reg))
	t.Cleanup(srv.Close)
	outs := make([]heldOut, len(held))
	for i, inst := range held {
		outs[i] = heldOut{ID: inst.ID, Service: inst.Service}
	}
	return srv, reg, outs, trainEnd
}

func postJSON(t *testing.T, client *http.Client, url string, body string) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func doDelete(t *testing.T, client *http.Client, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPInstancesMethodNotAllowed(t *testing.T) {
	srv, _, _, _ := instancesFixture(t)
	client := srv.Client()

	resp, err := client.Get(srv.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/instances = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", got)
	}
	if code, _ := decodeEnvelope(t, resp); code != "method_not_allowed" {
		t.Fatalf("code = %q, want method_not_allowed", code)
	}

	resp, err = client.Get(srv.URL + "/v1/instances/some-id")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/instances/some-id = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodDelete {
		t.Fatalf("Allow = %q, want DELETE", got)
	}
	resp.Body.Close()
}

func TestHTTPInstancesBadPayloads(t *testing.T) {
	srv, _, held, _ := instancesFixture(t)
	client := srv.Client()
	url := srv.URL + "/v1/instances"

	cases := []struct {
		name, body, wantCode string
		wantStatus           int
	}{
		{"not json", "{not json", "bad_request", http.StatusBadRequest},
		{"empty object", "{}", "bad_request", http.StatusBadRequest},
		{"missing service", `{"id":"x"}`, "bad_request", http.StatusBadRequest},
		{"bad as_of", `{"id":"x","service":"y","as_of":"yesterday"}`, "bad_request", http.StatusBadRequest},
		{"negative train_weeks", `{"id":"x","service":"y","train_weeks":-1}`, "bad_request", http.StatusBadRequest},
		{"train_weeks past retention", `{"id":"x","service":"y","train_weeks":15000}`, "bad_request", http.StatusBadRequest},
		{"as_of far from telemetry", `{"id":"x","service":"y","as_of":"2200-01-01T00:00:00Z"}`, "all_quarantined", http.StatusConflict},
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

	// Unknown ID on DELETE → 404 envelope.
	resp := doDelete(t, client, url+"/never-admitted")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "unknown_instance" {
		t.Errorf("DELETE unknown code = %q, want unknown_instance", code)
	}

	// Trailing-slash DELETE with no ID → 404 not_found.
	resp = doDelete(t, client, url+"/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE with empty id = %d, want 404", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "not_found" {
		t.Errorf("DELETE with empty id code = %q, want not_found", code)
	}
	_ = held
}

func TestHTTPInstancesAdmitRetire(t *testing.T) {
	srv, _, held, _ := instancesFixture(t)
	client := srv.Client()
	url := srv.URL + "/v1/instances"

	// Admit one held-out instance (the runtime's own clock supplies as_of).
	body, _ := json.Marshal(map[string]string{"id": held[0].ID, "service": held[0].Service})
	resp := postJSON(t, client, url, string(body))
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST = %d, want 201 (body %s)", resp.StatusCode, raw)
	}
	var view instanceView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID != held[0].ID || view.Leaf == "" {
		t.Fatalf("admit view = %+v", view)
	}

	// Admitting again conflicts.
	resp = postJSON(t, client, url, string(body))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double POST = %d, want 409", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "already_admitted" {
		t.Fatalf("double POST code = %q", code)
	}

	// Retire it.
	resp = doDelete(t, client, url+"/"+held[0].ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	var gone instanceView
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gone.ID != held[0].ID || gone.Leaf != view.Leaf {
		t.Fatalf("retire view = %+v, want leaf %q", gone, view.Leaf)
	}

	// And it can come back with an explicit as_of.
	resp = postJSON(t, client, url, string(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-POST = %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPInstancesSkewedWallClock admits without "as_of" on a server whose
// wall clock sits years past the stored telemetry. The default must be the
// runtime's replay clock, not time.Now() — with the wall clock every window
// would be empty and the whole fleet would look quarantined.
func TestHTTPInstancesSkewedWallClock(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd.Add(10 * 365 * 24 * time.Hour) }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)

	body, _ := json.Marshal(map[string]string{"id": held[0].ID, "service": held[0].Service})
	resp := postJSON(t, srv.Client(), srv.URL+"/v1/instances", string(body))
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST with skewed wall clock = %d, want 201 (body %s)", resp.StatusCode, raw)
	}
	resp.Body.Close()
}

// TestHTTPInstancesReplayDeterminism drives the same admission sequence
// against two fresh servers: identical placement decisions and identical
// HTTP counter deltas on the per-server registries.
func TestHTTPInstancesReplayDeterminism(t *testing.T) {
	run := func() ([]string, string) {
		srv, reg, held, trainEnd := instancesFixture(t)
		client := srv.Client()
		var leaves []string
		for _, h := range held {
			payload, _ := json.Marshal(map[string]string{
				"id": h.ID, "service": h.Service, "as_of": trainEnd.Format(time.RFC3339),
			})
			resp := postJSON(t, client, srv.URL+"/v1/instances", string(payload))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("POST %s = %d", h.ID, resp.StatusCode)
			}
			var view instanceView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			leaves = append(leaves, view.Leaf)
		}
		// One deliberate error so the error counter moves too.
		resp := doDelete(t, client, srv.URL+"/v1/instances/never-admitted")
		resp.Body.Close()

		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return leaves, buf.String()
	}
	leavesA, promA := run()
	leavesB, promB := run()
	if len(leavesA) != len(leavesB) {
		t.Fatalf("decision counts differ: %d vs %d", len(leavesA), len(leavesB))
	}
	for i := range leavesA {
		if leavesA[i] != leavesB[i] {
			t.Fatalf("decision %d diverged: %q vs %q", i, leavesA[i], leavesB[i])
		}
	}
	if promA != promB {
		t.Fatalf("registry expositions diverged:\n--- A\n%s\n--- B\n%s", promA, promB)
	}
}

// TestHTTPInstancesEscapedIDRoundTrip: whatever id POST admits, DELETE
// retires at its escaped path segment — including an id containing "/".
func TestHTTPInstancesEscapedIDRoundTrip(t *testing.T) {
	srv, _, held, _ := instancesFixture(t)
	client := srv.Client()
	base := srv.URL + "/v1/instances"
	ids := []string{"a/b", "rack 7/slot%3"}
	for _, id := range ids {
		body, _ := json.Marshal(map[string]string{"id": id, "service": held[0].Service})
		resp := postJSON(t, client, base, string(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %q = %d, want 201", id, resp.StatusCode)
		}
	}
	// Unescaped, the id's "/" splits it into two segments: not a route.
	resp := doDelete(t, client, base+"/a/b")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unescaped a/b = %d, want 404", resp.StatusCode)
	}
	for _, id := range ids {
		resp := doDelete(t, client, base+"/"+url.PathEscape(id))
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("DELETE %q = %d, want 200", url.PathEscape(id), resp.StatusCode)
		}
		var gone instanceView
		if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if gone.ID != id || gone.Leaf == "" {
			t.Fatalf("retire view = %+v, want id %q", gone, id)
		}
	}
}

// TestHTTPRetireClearsQuarantine admits an instance the store has never
// heard of (so it is quarantined onto a reference trace) and retires it:
// /v1/health, the quarantine gauge and InstanceQuality must forget it at
// once, not at the next tick. A rejected admission leaves no quality entry.
func TestHTTPRetireClearsQuarantine(t *testing.T) {
	rt, placed, _, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)
	client := srv.Client()
	health := func() (status string, quarantined []string) {
		t.Helper()
		resp, err := client.Get(srv.URL + "/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view struct {
			Status      string   `json:"status"`
			Quarantined []string `json:"quarantined"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return view.Status, view.Quarantined
	}
	if status, q := health(); status != "ok" || len(q) != 0 {
		t.Fatalf("fixture health = %q %v, want ok with nothing quarantined", status, q)
	}

	const ghost = "ghost-0001"
	body, _ := json.Marshal(map[string]string{"id": ghost, "service": placed[0].Service})
	resp := postJSON(t, client, srv.URL+"/v1/instances", string(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST %s = %d, want 201", ghost, resp.StatusCode)
	}
	if status, q := health(); status != "degraded" || len(q) != 1 || q[0] != ghost {
		t.Fatalf("after admission health = %q %v, want degraded with [%s]", status, q, ghost)
	}
	if got := obsQuarantined.Value(); got != 1 {
		t.Fatalf("quarantine gauge after admission = %v, want 1", got)
	}
	if _, ok := rt.InstanceQuality(ghost); !ok {
		t.Fatal("admitted instance has no quality entry")
	}

	resp = doDelete(t, client, srv.URL+"/v1/instances/"+ghost)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s = %d, want 200", ghost, resp.StatusCode)
	}
	if status, q := health(); status != "ok" || len(q) != 0 {
		t.Fatalf("after retirement health = %q %v, want ok with nothing quarantined", status, q)
	}
	if got := obsQuarantined.Value(); got != 0 {
		t.Fatalf("quarantine gauge after retirement = %v, want 0", got)
	}
	if q, ok := rt.InstanceQuality(ghost); ok {
		t.Fatalf("retired instance still has quality %+v", q)
	}
	rt.mu.Lock()
	_, kept := rt.services[ghost]
	rt.mu.Unlock()
	if kept {
		t.Fatal("retired instance is still in the runtime's service map")
	}

	// A rejected admission leaves nothing behind either.
	rt.Tree().Walk(func(n *powertree.Node) { n.Budget = 1 })
	const starved = "ghost-0002"
	if _, err := rt.AdmitInstance(starved, placed[0].Service, trainEnd, 2); !errors.Is(err, placement.ErrNoCapacity) {
		t.Fatalf("admit into starved tree: %v, want ErrNoCapacity", err)
	}
	if q, ok := rt.InstanceQuality(starved); ok {
		t.Fatalf("rejected admission left quality %+v", q)
	}
}
