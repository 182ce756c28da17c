package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestValidateFlags(t *testing.T) {
	good := options{dc: "DC1", scale: 1, step: time.Hour, weeks: 3, floor: 1.25, swaps: 24}
	if err := validate(good); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
		want   error
	}{
		{"weeks too small", func(o *options) { o.weeks = 2 }, errBadWeeks},
		{"zero scale", func(o *options) { o.scale = 0 }, errBadScale},
		{"negative scale", func(o *options) { o.scale = -3 }, errBadScale},
		{"zero step", func(o *options) { o.step = 0 }, errBadStep},
		{"negative step", func(o *options) { o.step = -time.Minute }, errBadStep},
		{"negative swaps", func(o *options) { o.swaps = -1 }, errBadSwaps},
		{"zero floor", func(o *options) { o.floor = 0 }, errBadFloor},
		{"negative floor", func(o *options) { o.floor = -1 }, errBadFloor},
	}
	for _, tc := range cases {
		o := good
		tc.mutate(&o)
		if err := validate(o); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if err := run(o); !errors.Is(err, tc.want) {
			t.Errorf("%s: run did not fail validation: %v", tc.name, err)
		}
	}
}

// parseTotals extracts every counter (name ending in _total) from a
// Prometheus text exposition. Timing histograms are deliberately excluded:
// they are the one metric family exempt from replay determinism.
func parseTotals(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("parsing metric line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

func snapshotTotals(t *testing.T) map[string]uint64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return parseTotals(t, b.String())
}

// TestSmokeReplayAndMetrics drives run() end to end twice on a small DC1
// replay: the second replay must move every counter by exactly the same
// delta as the first (replay determinism, timing histograms exempted), and
// the handler run() would have served must answer GET /v1/metrics with the
// full catalogue.
func TestSmokeReplayAndMetrics(t *testing.T) {
	var handlers []http.Handler
	listenAndServe = func(addr string, h http.Handler) error {
		handlers = append(handlers, h)
		return nil
	}
	defer func() { listenAndServe = http.ListenAndServe }()

	// floor 99 forces a Remap on every tick so the placement counters move.
	o := options{dc: "DC1", scale: 1, step: time.Hour, weeks: 3, seed: 1,
		floor: 99, swaps: 8, listen: "127.0.0.1:0"}
	v0 := snapshotTotals(t)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	v1 := snapshotTotals(t)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	v2 := snapshotTotals(t)

	for name, after := range v2 {
		d1 := v1[name] - v0[name]
		d2 := after - v1[name]
		if d1 != d2 {
			t.Errorf("%s: first replay moved it by %d, second by %d — replays are not deterministic", name, d1, d2)
		}
	}
	for _, name := range []string{
		"smoothop_score_vectors_total",
		"smoothop_score_batches_total",
		"smoothop_cluster_kmeans_runs_total",
		"smoothop_placement_remaps_total",
		"smoothop_powertree_aggregations_total",
		"smoothop_runtime_ingest_samples_total",
		"smoothop_runtime_ticks_total",
	} {
		if v1[name] <= v0[name] {
			t.Errorf("%s did not increase during the replay (before %d, after %d)", name, v0[name], v1[name])
		}
	}
	// The daemon links capping and sim, so their metrics are present even
	// when a replay exercises neither.
	for _, name := range []string{"smoothop_capping_steps_total", "smoothop_sim_runs_total"} {
		if _, ok := v1[name]; !ok {
			t.Errorf("%s missing from the registry", name)
		}
	}

	if len(handlers) != 2 {
		t.Fatalf("expected 2 captured handlers, got %d", len(handlers))
	}
	srv := httptest.NewServer(handlers[1])
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("GET /v1/metrics Content-Type = %q, want %q", got, obs.ContentType)
	}
	served := parseTotals(t, string(body))
	for name, want := range v2 {
		if got, ok := served[name]; !ok || got < want {
			t.Errorf("served /v1/metrics %s = %d (present %v), want ≥ %d", name, got, ok, want)
		}
	}

	resp2, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /status status = %d", resp2.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/metrics status = %d, want 405", resp3.StatusCode)
	}
	if got := resp3.Header.Get("Allow"); got != http.MethodGet {
		t.Fatalf("DELETE /v1/metrics Allow = %q, want GET", got)
	}
}
