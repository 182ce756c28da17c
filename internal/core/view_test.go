package core

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// TestRuntimeViewAgreesWithScratch pins the single-view invariant: after
// every operation of a Bootstrap → Admit → Tick (with swaps) → Retire →
// Admit sequence, the fragmentation gauges equal the power rows of
// GET /v1/fragmentation, and the whole response equals
// metrics.MultiFragmentationRates recomputed from scratch over the view's
// traces and the runtime's demand ledger — all with ==.
func TestRuntimeViewAgreesWithScratch(t *testing.T) {
	// A score floor no leaf reaches makes every tick attempt a remap.
	rt, instances, _, trainEnd := runtimeFixtureWith(t, RuntimeConfig{ScoreFloor: 10})
	capacitateTree(rt.tree, powertree.ResourceVector{"gpu": 64})
	placed, held := instances[:len(instances)-3], instances[len(instances)-3:]
	for i := range placed {
		if i%3 == 0 {
			// Thirds are inexact in binary, so summation order shows.
			placed[i].Demands = powertree.ResourceVector{"gpu": float64(1+i%4) / 3}
		}
	}
	clock := func() time.Time { return trainEnd }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	defer srv.Close()

	check := func(step string) {
		t.Helper()
		served := getFragRows(t, srv.Client(), srv.URL)
		rt.mu.Lock()
		scratch, err := metrics.MultiFragmentationRates(rt.tree, workload.SubPowerFn(rt.view.traces), rt.placementCfg().Demands)
		rt.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(served) != len(scratch) {
			t.Fatalf("%s: GET /v1/fragmentation has %d rows, from-scratch %d", step, len(served), len(scratch))
		}
		dims := 0
		for i, want := range scratch {
			got := served[i]
			if got.Level != want.Level.String() || got.Dimension != want.Dimension || got.Capacity != want.Capacity ||
				got.Headroom != want.Headroom || got.Admissible != want.Admissible || got.Stranded != want.StrandedWatts || got.RatePct != want.RatePct {
				t.Fatalf("%s: row %d served %+v, from-scratch %+v", step, i, got, want)
			}
			if want.Dimension != powertree.PowerDimension {
				dims++
				continue
			}
			if g := fragGauge(want.Level); g.Value() != want.RatePct {
				t.Fatalf("%s: %s gauge = %v, power row rate %v", step, want.Level, g.Value(), want.RatePct)
			}
		}
		if dims == 0 {
			t.Fatalf("%s: no capacity-dimension rows; the fixture lost its gpu capacities", step)
		}
	}

	if err := rt.Bootstrap(placed, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	check("bootstrap")
	if _, err := rt.Admit(AdmitRequest{ID: held[0].ID, Service: held[0].Service, AsOf: trainEnd, TrainWeeks: 2, Demands: powertree.ResourceVector{"gpu": 2.0 / 3}}); err != nil {
		t.Fatal(err)
	}
	check("admit")
	rep, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Swaps) == 0 {
		t.Fatal("the tick applied no swaps; the fixture no longer exercises the resync path")
	}
	check("tick")
	if _, err := rt.RetireInstance(rep.Swaps[0].InstanceA); err != nil {
		t.Fatal(err)
	}
	check("retire")
	// A zero-asOf admission re-keys the view to the tick's time.
	if _, err := rt.Admit(AdmitRequest{ID: held[1].ID, Service: held[1].Service, Demands: powertree.ResourceVector{"gpu": 1.0 / 3}}); err != nil {
		t.Fatal(err)
	}
	check("admit after tick")
}

// TestTickAggregatesOnce: a tick sweeps the fleet exactly once — Σ leaf
// peaks, the leaves' asynchrony scores, the remap they seed, the gauges and
// the breaker check all read that one aggregation — whether or not an
// admission view is live. The remap moves instances through the tick's own
// placer, so the only Online.Resync a tick runs is a live admission view
// absorbing the swaps.
func TestTickAggregatesOnce(t *testing.T) {
	// A score floor no leaf reaches makes every tick remap, and one swap
	// per tick leaves the second tick a swap to make.
	rt, instances, _, trainEnd := runtimeFixtureWith(t, RuntimeConfig{ScoreFloor: 10, MaxSwapsPerTick: 1})
	placed, held := instances[:len(instances)-3], instances[len(instances)-3:]
	if err := rt.Bootstrap(placed, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	sweeps := obs.Default().Counter("smoothop_powertree_aggregations_total", "")
	resyncs := obs.Default().Counter("smoothop_placement_resyncs_total", "")
	tick := func(step string, asOf time.Time, wantResyncs uint64) {
		t.Helper()
		before, resyncsBefore := sweeps.Value(), resyncs.Value()
		rep, err := rt.Tick(asOf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := sweeps.Value() - before; got != 1 {
			t.Fatalf("%s: tick ran %d full aggregations, want exactly 1", step, got)
		}
		if rep.WorstNode == "" {
			t.Fatalf("%s: tick scored no leaf, so the count covers no scoring", step)
		}
		if len(rep.Swaps) == 0 {
			t.Fatalf("%s: tick applied no swap, so the resync count covers nothing", step)
		}
		if got := resyncs.Value() - resyncsBefore; got != wantResyncs {
			t.Fatalf("%s: tick ran %d placer resyncs, want %d", step, got, wantResyncs)
		}
	}
	tick("tick after bootstrap", trainEnd.Add(7*24*time.Hour), 0)
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	tick("tick with an admission view live", trainEnd.Add(7*24*time.Hour), 1)
}

// TestRetiredInstancesLeaveNoTrace: admit/retire cycles must not accumulate
// state. Each admitted trace gets a finalizer; after its retirement nothing
// in the runtime may still reach it, so the collector frees every one.
func TestRetiredInstancesLeaveNoTrace(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	const cycles = 6
	freed := make(chan struct{}, cycles)
	for i := 0; i < cycles; i++ {
		inst := held[i%len(held)]
		if _, err := rt.AdmitInstance(inst.ID, inst.Service, trainEnd, 2); err != nil {
			t.Fatal(err)
		}
		rt.mu.Lock()
		runtime.SetFinalizer(&rt.view.traces[inst.ID].Values[0], func(*float64) { freed <- struct{}{} })
		rt.mu.Unlock()
		// Populate every cache that could hold on to the trace.
		if _, err := rt.PlanSnapshot(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.MultiFragmentationRates(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.RetireInstance(inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < cycles; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d retired traces were freed: the runtime still references the rest", got, cycles)
		}
	}
	runtime.KeepAlive(rt)
}

// TestAdmitReferenceUsesCurrentResidents: a quarantined arrival is scored
// from the residents that are there now. Once every healthy peer of its
// service has retired, it must fall through to the fleet-wide mean instead
// of a reference built from instances that left.
func TestAdmitReferenceUsesCurrentResidents(t *testing.T) {
	rt, placed, held, trainEnd := admissionFixture(t)
	// Key the view at the admission window first.
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	for _, inst := range placed {
		count[inst.Service]++
	}
	service := held[0].Service
	for _, inst := range placed {
		if inst.Service != held[0].Service && (service == held[0].Service || count[inst.Service] < count[service]) {
			service = inst.Service
		}
	}
	for _, inst := range placed {
		if inst.Service == service {
			if _, err := rt.RetireInstance(inst.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	var fleet []timeseries.Series
	for _, id := range rt.tree.AllInstances() {
		fleet = append(fleet, rt.view.traces[id])
	}
	want, err := timeseries.Mean(fleet...)
	if err != nil {
		t.Fatalf("fixture has no residents left: %v", err)
	}
	timeseries.SnapAll(want.Values)
	if _, err := rt.AdmitInstance("ghost-0001", service, trainEnd, 2); err != nil {
		t.Fatalf("admitting unreported instance: %v", err)
	}
	got := rt.view.traces["ghost-0001"]
	if got.Len() != want.Len() {
		t.Fatalf("reference trace has %d samples, fleet mean %d", got.Len(), want.Len())
	}
	for i, v := range want.Values {
		if got.Values[i] != v {
			t.Fatalf("reference trace differs from the mean of the current residents at sample %d: %v vs %v", i, got.Values[i], v)
		}
	}
}

// TestHTTPReadsRaceChurn hammers GET /v1/tree and GET /v1/status while
// admissions, retirements and a tick mutate the tree (run under -race in
// make check): the reads must go through the runtime lock, and every tree
// they serve must be a complete, loadable document.
func TestHTTPReadsRaceChurn(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	clock := func() time.Time { return trainEnd }
	srv := httptest.NewServer(testHandler(t, rt, clock, obs.NewWithClock(clock)))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/tree", "/v1/status", "/v1/tree", "/v1/status"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d (%v)", path, resp.StatusCode, err)
					return
				}
				if path == "/v1/tree" {
					if _, err := powertree.LoadTree(bytes.NewReader(body)); err != nil {
						t.Errorf("GET /v1/tree served an unloadable tree: %v", err)
						return
					}
				}
			}
		}(path)
	}
	for round := 0; round < 12; round++ {
		for _, inst := range held {
			if _, err := rt.AdmitInstance(inst.ID, inst.Service, trainEnd, 2); err != nil {
				t.Fatal(err)
			}
		}
		if round == 6 {
			if _, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, inst := range held {
			if _, err := rt.RetireInstance(inst.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestViewTracesOnScoringGrid: every trace the runtime scores from lies on
// the scoring grid (timeseries.Snap), so its ledger sums are exact in any
// order — after Bootstrap, a Tick, an admission, and the admission of an
// unreported instance, whose reference mean fills the view.
func TestViewTracesOnScoringGrid(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	check := func(after string) {
		t.Helper()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if len(rt.view.traces) == 0 {
			t.Fatalf("after %s: empty view", after)
		}
		for id, tr := range rt.view.traces {
			for i, v := range tr.Values {
				if timeseries.Snap(v) != v {
					t.Fatalf("after %s: %s slot %d = %b, off the grid", after, id, i, v)
				}
			}
		}
	}
	check("Bootstrap")
	if _, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	check("Tick")
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	check("AdmitInstance")
	if _, err := rt.AdmitInstance("ghost-0001", held[1].Service, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	filled := rt.view.filled["ghost-0001"]
	rt.mu.Unlock()
	if !filled {
		t.Fatal("the unreported arrival was not scored from a reference mean")
	}
	check("a quarantine fill")
}
