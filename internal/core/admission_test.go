package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/tracestore"
)

// admissionFixture bootstraps a runtime on all but the last three instances
// so tests can admit the held-out ones online. Returns the runtime, the
// placed instances, the held-out instances, and the training end.
func admissionFixture(t testing.TB) (*Runtime, []placement.Instance, []placement.Instance, time.Time) {
	t.Helper()
	rt, instances, _, trainEnd := runtimeFixture(t)
	hold := 3
	placed, held := instances[:len(instances)-hold], instances[len(instances)-hold:]
	if err := rt.Bootstrap(placed, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	return rt, placed, held, trainEnd
}

func TestAdmitInstanceLifecycle(t *testing.T) {
	rt, placed, held, trainEnd := admissionFixture(t)
	for _, inst := range held {
		leaf, err := rt.AdmitInstance(inst.ID, inst.Service, trainEnd, 2)
		if err != nil {
			t.Fatalf("admit %q: %v", inst.ID, err)
		}
		if leaf == "" {
			t.Fatalf("admit %q returned empty leaf", inst.ID)
		}
	}
	all := append(append([]placement.Instance(nil), placed...), held...)
	if err := placement.Verify(rt.Tree(), all); err != nil {
		t.Fatal(err)
	}

	// Double admit is a conflict.
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); !errors.Is(err, placement.ErrAlreadyAdmitted) {
		t.Fatalf("double admit: %v, want ErrAlreadyAdmitted", err)
	}
	// Bootstrap residents are part of the online view too.
	if _, err := rt.AdmitInstance(placed[0].ID, placed[0].Service, trainEnd, 2); !errors.Is(err, placement.ErrAlreadyAdmitted) {
		t.Fatalf("re-admitting a bootstrapped instance: %v, want ErrAlreadyAdmitted", err)
	}

	// Retire and re-admit.
	leaf, err := rt.RetireInstance(held[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if leaf == "" {
		t.Fatal("retire returned empty leaf")
	}
	if _, err := rt.RetireInstance(held[0].ID); !errors.Is(err, placement.ErrUnknownInstance) {
		t.Fatalf("double retire: %v, want ErrUnknownInstance", err)
	}
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); err != nil {
		t.Fatalf("re-admit after retire: %v", err)
	}
	if err := placement.Verify(rt.Tree(), all); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitDefaultsToRuntimeClock admits with a zero asOf: the runtime must
// fall back to its own evaluation time (Bootstrap's, then the latest
// Tick's), not the wall clock — a replay daemon's stored telemetry lives at
// the replay epoch, where time.Now() would find an empty window.
func TestAdmitDefaultsToRuntimeClock(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	leaf, err := rt.AdmitInstance(held[0].ID, held[0].Service, time.Time{}, 0)
	if err != nil {
		t.Fatalf("admit with zero asOf: %v", err)
	}
	if leaf == "" {
		t.Fatal("admit with zero asOf returned empty leaf")
	}
	if !rt.evalAsOf.Equal(trainEnd) {
		t.Fatalf("evalAsOf = %v, want bootstrap asOf %v", rt.evalAsOf, trainEnd)
	}

	tickAt := trainEnd.Add(7 * 24 * time.Hour)
	if _, err := rt.Tick(tickAt, 0); err != nil {
		t.Fatal(err)
	}
	if !rt.evalAsOf.Equal(tickAt) {
		t.Fatalf("evalAsOf after tick = %v, want %v", rt.evalAsOf, tickAt)
	}
	if _, err := rt.AdmitInstance(held[1].ID, held[1].Service, time.Time{}, 0); err != nil {
		t.Fatalf("admit with zero asOf after tick: %v", err)
	}
}

func TestAdmitBeforeBootstrap(t *testing.T) {
	rt, instances, _, trainEnd := runtimeFixture(t)
	if _, err := rt.AdmitInstance(instances[0].ID, instances[0].Service, trainEnd, 2); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("admit before bootstrap: %v, want ErrNotPlaced", err)
	}
	if _, err := rt.RetireInstance(instances[0].ID); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("retire before bootstrap: %v, want ErrNotPlaced", err)
	}
}

func TestAdmitValidation(t *testing.T) {
	rt, placed, _, trainEnd := admissionFixture(t)
	if _, err := rt.AdmitInstance("", placed[0].Service, trainEnd, 2); err == nil {
		t.Fatal("empty id must error")
	}
	if _, err := rt.AdmitInstance("new-one", "", trainEnd, 2); err == nil {
		t.Fatal("empty service must error")
	}
}

// TestAdmitQuarantineFallback admits an instance the store has never heard
// of: it must land on its service's reference trace, not fail.
func TestAdmitQuarantineFallback(t *testing.T) {
	rt, placed, _, trainEnd := admissionFixture(t)
	service := placed[0].Service
	leaf, err := rt.AdmitInstance("ghost-0001", service, trainEnd, 2)
	if err != nil {
		t.Fatalf("admitting unreported instance: %v", err)
	}
	if leaf == "" {
		t.Fatal("empty leaf for quarantined admission")
	}
	found := false
	for _, id := range rt.Quarantined() {
		if id == "ghost-0001" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ghost-0001 not quarantined: %v", rt.Quarantined())
	}

	// The next tick reads the arrival like any resident: still no data, so
	// quarantined and scored from a reference, not a failed tick.
	rep, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0)
	if err != nil {
		t.Fatalf("tick after admitting an unreported instance: %v", err)
	}
	if !slices.Contains(rep.Quarantined, "ghost-0001") {
		t.Fatalf("tick Quarantined = %v, want ghost-0001 in it", rep.Quarantined)
	}
	if q, ok := rt.InstanceQuality("ghost-0001"); !ok || q.Grade != tracestore.GradeNoData {
		t.Fatalf("tick quality for ghost-0001 = %+v, %v", q, ok)
	}
}

// TestTrainWeeksBoundedByRetention: a training window longer than the
// store keeps is refused with ErrTrainWeeks before any read — the view is
// not rebuilt — at admission and at bootstrap alike. A window exactly as
// long as the retention is still served.
func TestTrainWeeksBoundedByRetention(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	rt.mu.Lock()
	before := rt.view
	rt.mu.Unlock()
	for _, weeks := range []int{5, 1000, 15000, math.MaxInt} {
		_, err := rt.Admit(AdmitRequest{ID: held[0].ID, Service: held[0].Service, AsOf: trainEnd, TrainWeeks: weeks})
		if !errors.Is(err, ErrTrainWeeks) {
			t.Fatalf("train_weeks %d: %v, want ErrTrainWeeks", weeks, err)
		}
	}
	rt.mu.Lock()
	after := rt.view
	rt.mu.Unlock()
	if after != before {
		t.Fatal("a refused training window rebuilt the view")
	}
	if _, ok := rt.InstanceQuality(held[0].ID); ok {
		t.Fatal("a refused training window left a quality entry")
	}
	// The fixture's store keeps 4 weeks.
	if _, err := rt.Admit(AdmitRequest{ID: held[0].ID, Service: held[0].Service, AsOf: trainEnd, TrainWeeks: 4}); err != nil {
		t.Fatalf("train_weeks 4 over a 4-week retention: %v", err)
	}

	fresh, instances, _, _ := runtimeFixture(t)
	if err := fresh.Bootstrap(instances, trainEnd, 5); !errors.Is(err, ErrTrainWeeks) {
		t.Fatalf("bootstrap over 5 weeks: %v, want ErrTrainWeeks", err)
	}
	if fresh.Placed() || fresh.Tree().InstanceCount() != 0 {
		t.Fatal("a refused bootstrap placed instances")
	}
}

// TestAdmitNoCapacity starves the tree and checks the rejection leaves it
// untouched.
func TestAdmitNoCapacity(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	rt.Tree().Walk(func(n *powertree.Node) { n.Budget = 1 })
	before := rt.Tree().InstanceCount()
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); !errors.Is(err, placement.ErrNoCapacity) {
		t.Fatalf("admit into starved tree: %v, want ErrNoCapacity", err)
	}
	if got := rt.Tree().InstanceCount(); got != before {
		t.Fatalf("rejected admission changed instance count %d → %d", before, got)
	}
}

// TestRetireWithoutOnlineView retires straight after Bootstrap, before any
// admission built the online view.
func TestRetireWithoutOnlineView(t *testing.T) {
	rt, placed, _, _ := admissionFixture(t)
	leaf, err := rt.RetireInstance(placed[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if leaf == "" {
		t.Fatal("retire returned empty leaf")
	}
	if _, err := rt.RetireInstance("never-heard-of"); !errors.Is(err, placement.ErrUnknownInstance) {
		t.Fatalf("retiring unknown: %v, want ErrUnknownInstance", err)
	}
}

// TestTickRetainsOnlineView checks that an admission view survives a tick:
// a clean remap keeps it (resyncing only swapped leaves) so retirements and
// windowed admissions reuse it directly, and only a reconciliation failure
// hands the runtime over to the tick's own view.
func TestTickRetainsOnlineView(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	if _, err := rt.AdmitInstance(held[0].ID, held[0].Service, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	admissionView := rt.view
	if _, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	if rt.view != admissionView {
		t.Fatal("tick replaced the admission view despite a clean remap")
	}
	if _, ok := rt.view.online.Leaf(held[0].ID); !ok {
		t.Fatalf("retained view lost track of %s", held[0].ID)
	}
	// The view is still keyed at its original window, so an explicitly
	// windowed admission reuses it without a rebuild...
	if _, err := rt.AdmitInstance(held[1].ID, held[1].Service, trainEnd, 2); err != nil {
		t.Fatalf("admit after tick: %v", err)
	}
	// ...and a retirement works against it directly.
	if _, err := rt.RetireInstance(held[0].ID); err != nil {
		t.Fatalf("retire after tick: %v", err)
	}
	if rt.view != admissionView {
		t.Fatal("windowed admission or retirement rebuilt the retained view")
	}

	// A remap that swapped real leaves resyncs in place and keeps the view.
	leaves := rt.Tree().Leaves()
	tickView := func() *view {
		tv, err := rt.newView(rt.view.traces, nil, trainEnd, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tv
	}
	rt.mu.Lock()
	rt.adoptTick(tickView(), rt.swappedLeaves([]placement.Swap{{NodeA: leaves[0].Name, NodeB: leaves[1].Name}}))
	rt.mu.Unlock()
	if rt.view != admissionView {
		t.Fatal("resync of real leaves dropped the view")
	}

	// A swap naming a leaf the tree does not have cannot be reconciled: the
	// tick's view takes over.
	tv := tickView()
	rt.mu.Lock()
	rt.adoptTick(tv, rt.swappedLeaves([]placement.Swap{{NodeA: "no-such-leaf", NodeB: leaves[0].Name}}))
	rt.mu.Unlock()
	if rt.view != tv {
		t.Fatal("failed reconciliation kept a stale admission view")
	}
	// The next admission rebuilds an admission view from the store.
	if _, err := rt.AdmitInstance(held[2].ID, held[2].Service, trainEnd, 2); err != nil {
		t.Fatalf("admit after drop: %v", err)
	}
	if rt.view == tv || rt.view.weeks != 2 {
		t.Fatal("admission did not rebuild the dropped view")
	}
}

func TestRuntimeFragmentationRates(t *testing.T) {
	rt, _, _, _ := admissionFixture(t)
	rows, err := rt.MultiFragmentationRates()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(powertree.Levels) {
		t.Fatalf("got %d fragmentation rows, want %d", len(rows), len(powertree.Levels))
	}
	for _, row := range rows {
		if row.RatePct < 0 || row.StrandedWatts < 0 {
			t.Fatalf("negative fragmentation at %s: %+v", row.Level, row)
		}
	}

	unplaced, _, _, _ := runtimeFixture(t)
	if _, err := unplaced.MultiFragmentationRates(); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("rates before bootstrap: %v, want ErrNotPlaced", err)
	}
}

// TestAdmitReplayDeterminism runs the same admission sequence on two fresh
// runtimes: decisions and runtime counter deltas must match exactly.
func TestAdmitReplayDeterminism(t *testing.T) {
	type outcome struct {
		leaves     []string
		admissions uint64
		rejects    uint64
		retires    uint64
	}
	run := func() outcome {
		a0, r0, t0 := obsRuntimeAdmissions.Value(), obsRuntimeAdmissionRejects.Value(), obsRuntimeRetirements.Value()
		rt, _, held, trainEnd := admissionFixture(t)
		var leaves []string
		for _, inst := range held {
			leaf, err := rt.AdmitInstance(inst.ID, inst.Service, trainEnd, 2)
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, leaf)
		}
		if _, err := rt.RetireInstance(held[0].ID); err != nil {
			t.Fatal(err)
		}
		return outcome{
			leaves:     leaves,
			admissions: obsRuntimeAdmissions.Value() - a0,
			rejects:    obsRuntimeAdmissionRejects.Value() - r0,
			retires:    obsRuntimeRetirements.Value() - t0,
		}
	}
	a, b := run(), run()
	if len(a.leaves) != len(b.leaves) {
		t.Fatalf("decision counts differ: %d vs %d", len(a.leaves), len(b.leaves))
	}
	for i := range a.leaves {
		if a.leaves[i] != b.leaves[i] {
			t.Fatalf("decision %d diverged: %q vs %q", i, a.leaves[i], b.leaves[i])
		}
	}
	if a.admissions != b.admissions || a.rejects != b.rejects || a.retires != b.retires {
		t.Fatalf("counter deltas diverged: %+v vs %+v", a, b)
	}
	if a.admissions == 0 || a.retires == 0 {
		t.Fatalf("counters did not move: %+v", a)
	}
}
