package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHTTPV1RoutesAndLegacyAliases checks the versioned API contract: every
// /v1/ GET route serves, and the pre-versioning aliases are gone — they
// answer like any other unknown path, with the 404 envelope.
func TestHTTPV1RoutesAndLegacyAliases(t *testing.T) {
	srv, _ := metricsFixture(t)
	client := srv.Client()

	for _, path := range []string{"/v1/health", "/v1/status", "/v1/tree", "/v1/history", "/v1/metrics"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/healthz", "/status", "/tree", "/history", "/metrics"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: the unversioned aliases were removed", path, resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != "not_found" {
			t.Errorf("GET %s envelope code = %q, want not_found", path, code)
		}
	}
}

func decodeEnvelope(t *testing.T, resp *http.Response) (code, message string) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json (body %q)", ct, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (body %q)", err, body)
	}
	return env.Error.Code, env.Error.Message
}

func TestHTTPErrorEnvelope(t *testing.T) {
	srv, reg := metricsFixture(t)
	client := srv.Client()

	// Unknown path → 404 envelope.
	resp, err := client.Get(srv.URL + "/v2/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}
	if code, msg := decodeEnvelope(t, resp); code != "not_found" || !strings.Contains(msg, "/v2/doesnotexist") {
		t.Fatalf("404 envelope = %q %q", code, msg)
	}

	// Wrong method → 405 envelope with Allow.
	for _, path := range []string{"/v1/status", "/v1/tree"} {
		resp, err := client.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != http.MethodGet {
			t.Fatalf("POST %s Allow = %q, want GET", path, got)
		}
		if code, _ := decodeEnvelope(t, resp); code != "method_not_allowed" {
			t.Fatalf("POST %s envelope code = %q", path, code)
		}
	}

	if got := reg.Counter("smoothop_http_errors_total", "").Value(); got != 3 {
		t.Errorf("error counter = %d, want 3", got)
	}
}

// TestHTTPUnscorableTick: a tick over a tree where no leaf hosts two
// residents has no worst leaf and a +Inf score. /v1/status and /v1/history
// must still serve it — omitting worst_score, which JSON cannot encode —
// while a scored tick keeps the field.
func TestHTTPUnscorableTick(t *testing.T) {
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 3, nil)
	srv := httptest.NewServer(testHandler(t, rt, time.Now, obs.Default()))
	defer srv.Close()
	get := func(path string) map[string]json.RawMessage {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, resp.StatusCode, body)
		}
		var last map[string]json.RawMessage
		if path == "/v1/history" {
			var ticks []map[string]json.RawMessage
			if err := json.Unmarshal(body, &ticks); err != nil {
				t.Fatal(err)
			}
			last = ticks[len(ticks)-1]
		} else {
			var status struct {
				LastTick map[string]json.RawMessage `json:"last_tick"`
			}
			if err := json.Unmarshal(body, &status); err != nil {
				t.Fatal(err)
			}
			last = status.LastTick
		}
		return last
	}

	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Tick(trainEnd.Add(dWeek), 0); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/status", "/v1/history"} {
		if _, ok := get(path)["worst_score"]; !ok {
			t.Fatalf("%s: scored tick lost worst_score", path)
		}
	}

	for _, leaf := range rt.Tree().Leaves() {
		for _, id := range append([]string(nil), leaf.Instances[1:]...) {
			if _, err := rt.RetireInstance(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := rt.Tick(trainEnd.Add(dWeek), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstNode != "" {
		t.Fatalf("one resident per leaf, yet worst node %q", rep.WorstNode)
	}
	for _, path := range []string{"/v1/status", "/v1/history"} {
		last := get(path)
		if _, ok := last["worst_score"]; ok {
			t.Fatalf("%s: unscorable tick reports worst_score %s", path, last["worst_score"])
		}
		if string(last["worst_node"]) != `""` {
			t.Fatalf("%s: worst_node = %s", path, last["worst_node"])
		}
	}
}

// TestHTTPV1HealthDegradation drives the runtime into a degraded state and
// checks /v1/health reports it.
func TestHTTPV1HealthDegradation(t *testing.T) {
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 3, map[string]bool{"d": true})
	clock := func() time.Time { return time.Date(2016, 8, 22, 0, 0, 0, 0, time.UTC) }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.Default()))
	defer srv.Close()

	getHealth := func() (status string, quarantined []string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/health")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			Status      string   `json:"status"`
			Quarantined []string `json:"quarantined"`
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("%v (body %q)", err, body)
		}
		return view.Status, view.Quarantined
	}

	if status, _ := getHealth(); status != "ok" {
		t.Fatalf("pre-bootstrap health = %q, want ok", status)
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Tick(trainEnd.Add(dWeek), 0); err != nil {
		t.Fatal(err)
	}
	status, quarantined := getHealth()
	if status != "degraded" {
		t.Fatalf("health after dark week = %q, want degraded", status)
	}
	if len(quarantined) != 1 || quarantined[0] != "d" {
		t.Fatalf("health quarantined = %v, want [d]", quarantined)
	}
}
