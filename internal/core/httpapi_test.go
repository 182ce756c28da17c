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
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
)

// testHandler serves rt's HTTP API with a default-limit planning service.
func testHandler(t testing.TB, rt *Runtime, now func() time.Time, reg *obs.Registry) http.Handler {
	t.Helper()
	planner, err := plan.NewService(rt.PlanSnapshot, plan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return HTTPHandlerWithPlanner(rt, planner, now, reg)
}

func TestHTTPHandler(t *testing.T) {
	rt, instances, _, trainEnd := runtimeFixture(t)
	srv := httptest.NewServer(testHandler(t, rt, time.Now, obs.Default()))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	// Liveness.
	resp, body := get("/v1/health")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("health: %d %q", resp.StatusCode, body)
	}

	// Status before bootstrap.
	resp, body = get("/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var status struct {
		Placed    bool `json:"placed"`
		Instances int  `json:"instances"`
		Ticks     int  `json:"ticks"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.Placed || status.Instances != 0 {
		t.Fatalf("pre-bootstrap status: %+v", status)
	}

	// Bootstrap and tick, then re-read.
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	_, body = get("/v1/status")
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if !status.Placed || status.Instances != len(instances) || status.Ticks != 1 {
		t.Fatalf("post-bootstrap status: %+v", status)
	}

	// Tree round-trips through the powertree codec.
	resp, body = get("/v1/tree")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tree: %d", resp.StatusCode)
	}
	tree, err := powertree.LoadTree(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := placement.Verify(tree, instances); err != nil {
		t.Fatalf("served tree incomplete: %v", err)
	}

	// History lists the tick.
	_, body = get("/v1/history")
	var views []struct {
		WorstNode string `json:"worst_node"`
		Swaps     int    `json:"swaps"`
	}
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].WorstNode == "" {
		t.Fatalf("history: %+v", views)
	}

	// Non-GET methods are rejected.
	post, err := http.Post(srv.URL+"/v1/status", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status: %d", post.StatusCode)
	}
}
