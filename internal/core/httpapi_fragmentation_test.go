package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/powertree"
)

// capacitateTree gives every leaf the same capacity vector and re-derives
// interior capacities bottom-up, turning a power-only fixture tree into a
// multi-resource one.
func capacitateTree(tree *powertree.Node, leafCaps powertree.ResourceVector) {
	var derive func(n *powertree.Node)
	derive = func(n *powertree.Node) {
		if n.IsLeaf() {
			n.Capacities = leafCaps.Clone()
			return
		}
		for _, c := range n.Children {
			derive(c)
		}
		n.Capacities = powertree.SumCapacities(n.Children)
	}
	derive(tree)
}

// multiFragFixture serves a bootstrapped runtime whose tree declares a "gpu"
// capacity of 4 per leaf. Returns the server, held-out instances, the leaf
// count and the runtime.
func multiFragFixture(t *testing.T) (*httptest.Server, []heldOut, int, *Runtime) {
	t.Helper()
	rt, _, held, trainEnd := admissionFixture(t)
	capacitateTree(rt.tree, powertree.ResourceVector{"gpu": 4})
	clock := func() time.Time { return trainEnd }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)
	outs := make([]heldOut, len(held))
	for i, inst := range held {
		outs[i] = heldOut{ID: inst.ID, Service: inst.Service}
	}
	return srv, outs, len(rt.tree.Leaves()), rt
}

func getFragRows(t *testing.T, client *http.Client, url string) []fragRowView {
	t.Helper()
	resp, err := client.Get(url + "/v1/fragmentation")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET /v1/fragmentation = %d (body %s)", resp.StatusCode, raw)
	}
	var rows []fragRowView
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return rows
}

func TestHTTPFragmentationMultiDim(t *testing.T) {
	srv, held, leaves, rt := multiFragFixture(t)
	client := srv.Client()

	rows := getFragRows(t, client, srv.URL)
	if len(rows) == 0 || rows[0].Dimension != powertree.PowerDimension {
		t.Fatalf("rows must lead with power: %+v", rows)
	}
	gpuRow := func(rows []fragRowView, level string) (fragRowView, bool) {
		for _, row := range rows {
			if row.Level == level && row.Dimension == "gpu" {
				return row, true
			}
		}
		return fragRowView{}, false
	}
	dcGpu := func(rows []fragRowView) (fragRowView, bool) { return gpuRow(rows, "DC") }
	row, ok := dcGpu(rows)
	if !ok {
		t.Fatalf("no DC gpu row in %+v", rows)
	}
	want := float64(4 * leaves)
	if row.Capacity != want || row.Headroom != want || row.Stranded != 0 {
		t.Fatalf("pristine DC gpu row = %+v, want capacity/headroom %v", row, want)
	}

	// Admit one instance that consumes a gpu; the report must reflect it.
	body, _ := json.Marshal(map[string]any{
		"id": held[0].ID, "service": held[0].Service,
		"demands": map[string]float64{"gpu": 1},
	})
	resp := postJSON(t, client, srv.URL+"/v1/instances", string(body))
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST with demands = %d, want 201 (body %s)", resp.StatusCode, raw)
	}
	var admitted instanceView
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	row, ok = dcGpu(getFragRows(t, client, srv.URL))
	if !ok {
		t.Fatal("DC gpu row vanished after admission")
	}
	if row.Headroom != want-1 {
		t.Fatalf("DC gpu headroom after admission = %v, want %v", row.Headroom, want-1)
	}

	// The hosting leaf's gpu capacity redeclared around its one gpu in use:
	// at 4 the RPP row counts no node, below 1 it counts the leaf as
	// overcommitted and clamps its headroom to 0.
	var host *powertree.Node
	rt.tree.Walk(func(n *powertree.Node) {
		if n.Name == admitted.Leaf {
			host = n
		}
	})
	if host == nil {
		t.Fatalf("admitted onto unknown leaf %q", admitted.Leaf)
	}
	for _, tc := range []struct {
		capacity, headroom float64
		overcommitted      int
	}{
		{capacity: 4, headroom: want - 1},
		{capacity: 0.5, headroom: want - 4, overcommitted: 1},
		{capacity: 4, headroom: want - 1},
	} {
		rt.mu.Lock()
		host.Capacities["gpu"] = tc.capacity
		rt.mu.Unlock()
		row, ok := gpuRow(getFragRows(t, client, srv.URL), "RPP")
		if !ok || row.Headroom != tc.headroom || row.Overcommitted != tc.overcommitted {
			t.Fatalf("host gpu capacity %v: RPP gpu row = %+v, want headroom %v, overcommitted %d",
				tc.capacity, row, tc.headroom, tc.overcommitted)
		}
	}

	// Retiring the instance returns the gpu.
	resp = doDelete(t, client, srv.URL+"/v1/instances/"+held[0].ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	row, _ = dcGpu(getFragRows(t, client, srv.URL))
	if row.Headroom != want {
		t.Fatalf("DC gpu headroom after retire = %v, want %v", row.Headroom, want)
	}

	// Method discipline: POST is not allowed.
	resp = postJSON(t, client, srv.URL+"/v1/fragmentation", "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/fragmentation = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodGet {
		t.Fatalf("Allow = %q, want GET", got)
	}
	if code, _ := decodeEnvelope(t, resp); code != "method_not_allowed" {
		t.Fatalf("code = %q, want method_not_allowed", code)
	}
}

func TestHTTPFragmentationPowerOnly(t *testing.T) {
	srv, _, _, _ := instancesFixture(t)
	rows := getFragRows(t, srv.Client(), srv.URL)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if row.Dimension != powertree.PowerDimension {
			t.Fatalf("power-only tree produced row %+v", row)
		}
	}
}

func TestHTTPFragmentationNotPlaced(t *testing.T) {
	rt, _, _, trainEnd := runtimeFixture(t)
	clock := func() time.Time { return trainEnd }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	t.Cleanup(srv.Close)
	resp, err := srv.Client().Get(srv.URL + "/v1/fragmentation")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("GET before bootstrap = %d, want 409", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "not_placed" {
		t.Fatalf("code = %q, want not_placed", code)
	}
}

func TestHTTPInstancesBadDemands(t *testing.T) {
	srv, held, _, _ := multiFragFixture(t)
	client := srv.Client()
	url := srv.URL + "/v1/instances"

	cases := []struct{ name, demands string }{
		{"negative", `{"gpu":-1}`},
		{"reserved power", `{"power":1}`},
		{"unnamed dimension", `{"":1}`},
	}
	for _, tc := range cases {
		body := `{"id":"` + held[0].ID + `","service":"` + held[0].Service + `","demands":` + tc.demands + `}`
		resp := postJSON(t, client, url, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if code, _ := decodeEnvelope(t, resp); code != "bad_request" {
			t.Errorf("%s: code = %q, want bad_request", tc.name, code)
		}
	}

	// A demand no leaf can hold is a capacity conflict, not a 400.
	body := `{"id":"` + held[0].ID + `","service":"` + held[0].Service + `","demands":{"gpu":5}}`
	resp := postJSON(t, client, url, body)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("oversized demand: status = %d, want 409", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "no_capacity" {
		t.Errorf("oversized demand: code = %q, want no_capacity", code)
	}
}
