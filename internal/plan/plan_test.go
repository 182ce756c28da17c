package plan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// fixture builds a small populated placement: a 1×1×2×2 tree (4 RPPs) with
// three services of phase-shifted daily traces, two instances each, plus
// plenty of leaf headroom for add_instances to land.
func fixture(t *testing.T) (*powertree.Node, map[string]timeseries.Series, map[string]string, time.Time) {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	traces := make(map[string]timeseries.Series)
	services := make(map[string]string)
	leaves := tree.Leaves()
	svcs := []string{"web", "db", "batch"}
	idx := 0
	for s, svc := range svcs {
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("%s-%d", svc, k)
			vals := make([]float64, 48)
			for i := range vals {
				// Phase-shifted diurnal curves so services are asynchronous.
				vals[i] = 200 + 150*math.Sin(2*math.Pi*float64(i+8*s)/24)
			}
			traces[id] = timeseries.New(start, time.Hour, vals)
			services[id] = svc
			if err := leaves[idx%len(leaves)].Attach(id); err != nil {
				t.Fatal(err)
			}
			idx++
		}
	}
	return tree, traces, services, start.Add(48 * time.Hour)
}

func snapFixture(t *testing.T) *Snapshot {
	t.Helper()
	tree, traces, services, asOf := fixture(t)
	snap, err := NewSnapshot(tree, traces, services, asOf, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestNewSnapshotValidation(t *testing.T) {
	tree, traces, services, asOf := fixture(t)
	if _, err := NewSnapshot(nil, traces, services, asOf, time.Hour); !errors.Is(err, ErrNilTree) {
		t.Fatalf("nil tree: %v, want ErrNilTree", err)
	}
	if _, err := NewSnapshot(tree, traces, services, asOf, 0); !errors.Is(err, ErrBadStep) {
		t.Fatalf("zero step: %v, want ErrBadStep", err)
	}
	delete(traces, "web-0")
	if _, err := NewSnapshot(tree, traces, services, asOf, time.Hour); !errors.Is(err, ErrMissingTrace) {
		t.Fatalf("missing trace: %v, want ErrMissingTrace", err)
	}
}

// TestSnapshotIsolation pins the copy-on-write contract from both sides:
// mutating the source tree after capture must not change results, and
// evaluating queries must not change the snapshot.
func TestSnapshotIsolation(t *testing.T) {
	tree, traces, services, asOf := fixture(t)
	snap, err := NewSnapshot(tree, traces, services, asOf, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Kind: KindReplaceService, Service: "web"}
	first, err := snap.Evaluate(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, first)

	// Side 1: vandalize the source tree — detach everything, zero budgets.
	for _, leaf := range tree.Leaves() {
		for _, id := range append([]string(nil), leaf.Instances...) {
			leaf.Detach(id)
		}
	}
	tree.Walk(func(n *powertree.Node) { n.Budget = 1 })

	// Side 2: run other scenarios on the same snapshot in between.
	if _, err := snap.Evaluate(context.Background(), Query{Kind: KindTripBreaker, Node: "dc/s0/m0/b0/r0", BudgetFraction: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Evaluate(context.Background(), Query{Kind: KindAddInstances, Archetype: "db", Count: 3}, 1); err != nil {
		t.Fatal(err)
	}

	again, err := snap.Evaluate(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, again); got != want {
		t.Fatalf("replace_service diverged after source mutation + other queries:\n--- first\n%s\n--- again\n%s", want, got)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestEvaluateRejectsBadQueries(t *testing.T) {
	snap := snapFixture(t)
	bad := []Query{
		{},
		{Kind: "explode"},
		{Kind: KindReplaceService},
		{Kind: KindAddInstances, Archetype: "web"},
		{Kind: KindAddInstances, Count: 3},
		{Kind: KindAddInstances, Archetype: "web", Count: -1},
		{Kind: KindTripBreaker},
		{Kind: KindTripBreaker, Node: "dc", BudgetFraction: 1.5},
		{Kind: KindTripBreaker, Node: "dc", DurationSeconds: -1},
		{Kind: KindReplaceService, Service: "web", Policy: "psychic"},
	}
	for _, q := range bad {
		if _, err := snap.Evaluate(context.Background(), q, 1); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Evaluate(%+v) err = %v, want ErrBadQuery", q, err)
		}
	}
	if _, err := snap.Evaluate(context.Background(), Query{Kind: KindReplaceService, Service: "nope"}, 1); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("unknown service: %v", err)
	}
	if _, err := snap.Evaluate(context.Background(), Query{Kind: KindAddInstances, Archetype: "nope", Count: 1}, 1); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("unknown archetype: %v", err)
	}
	if _, err := snap.Evaluate(context.Background(), Query{Kind: KindTripBreaker, Node: "dc/sX"}, 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: %v", err)
	}
}

func TestReplaceServiceAccounting(t *testing.T) {
	snap := snapFixture(t)
	res, err := snap.Evaluate(context.Background(), Query{Kind: KindReplaceService, Service: "web"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != 2 || len(res.Unplaceable) != 0 {
		t.Fatalf("replaced %d unplaceable %v, want 2 and none", res.Replaced, res.Unplaceable)
	}
	if res.Policy != "asynchrony" {
		t.Fatalf("policy = %q, want default asynchrony", res.Policy)
	}
	if res.Before.SumOfLeafPeaksWatts <= 0 || res.After.SumOfLeafPeaksWatts <= 0 {
		t.Fatalf("reports missing Σ leaf peaks: before %v after %v", res.Before.SumOfLeafPeaksWatts, res.After.SumOfLeafPeaksWatts)
	}
	if len(res.Before.Fragmentation) == 0 || len(res.After.Fragmentation) == 0 {
		t.Fatal("reports missing fragmentation rows")
	}
	// Re-placing through the asynchrony policy must not fragment the
	// placement it came from.
	if res.After.SumOfLeafPeaksWatts > res.Before.SumOfLeafPeaksWatts*1.05 {
		t.Fatalf("re-placement fragmented: before %v after %v", res.Before.SumOfLeafPeaksWatts, res.After.SumOfLeafPeaksWatts)
	}
}

func TestAddInstancesAccounting(t *testing.T) {
	snap := snapFixture(t)
	res, err := snap.Evaluate(context.Background(), Query{Kind: KindAddInstances, Archetype: "db", Count: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted+res.Rejected != 4 {
		t.Fatalf("admitted %d + rejected %d != 4", res.Admitted, res.Rejected)
	}
	if res.Admitted == 0 {
		t.Fatal("no synthetic instance admitted despite headroom")
	}
	if res.After.SumOfLeafPeaksWatts <= res.Before.SumOfLeafPeaksWatts {
		t.Fatalf("adding load did not raise Σ leaf peaks: before %v after %v",
			res.Before.SumOfLeafPeaksWatts, res.After.SumOfLeafPeaksWatts)
	}

	// Saturate: a huge request must stop at capacity, not error.
	res, err = snap.Evaluate(context.Background(), Query{Kind: KindAddInstances, Archetype: "db", Count: 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("500 synthetic instances all fit — fixture budgets are meant to saturate")
	}
}

func TestTripBreakerImpact(t *testing.T) {
	snap := snapFixture(t)
	res, err := snap.Evaluate(context.Background(), Query{Kind: KindTripBreaker, Node: "dc/s0/m0/b0/r0", BudgetFraction: 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trip == nil || !res.Trip.Applied || res.Trip.BudgetFraction != 0.25 {
		t.Fatalf("trip view = %+v, want applied at 0.25", res.Trip)
	}
	if len(res.After.BreakerViolations) == 0 {
		t.Fatal("quartering an RPP budget below resident peaks reported no breaker violations")
	}
	if len(res.Before.BreakerViolations) != 0 {
		t.Fatalf("baseline already violating: %+v", res.Before.BreakerViolations)
	}
	if res.Throttles == 0 || res.ShedWatts <= 0 {
		t.Fatalf("emergency capping impact missing: throttles %d shed %v", res.Throttles, res.ShedWatts)
	}

	// A trip scheduled entirely outside the telemetry window changes nothing.
	res, err = snap.Evaluate(context.Background(), Query{
		Kind: KindTripBreaker, Node: "dc/s0/m0/b0/r0",
		Start: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), DurationSeconds: 3600,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trip.Applied {
		t.Fatal("out-of-window trip reported as applied")
	}
	if res.After.SumOfLeafPeaksWatts != res.Before.SumOfLeafPeaksWatts || res.Throttles != 0 {
		t.Fatalf("out-of-window trip changed the report: %+v", res)
	}
}

// TestEvaluateWorkerIndependence pins the workers knob as a pure throughput
// knob: every query kind must marshal bit-identically at workers 1 and 8.
func TestEvaluateWorkerIndependence(t *testing.T) {
	queries := []Query{
		{Kind: KindReplaceService, Service: "web"},
		{Kind: KindReplaceService, Service: "db", Policy: "best-fit"},
		{Kind: KindReplaceService, Service: "batch", Policy: "random", Seed: 7},
		{Kind: KindAddInstances, Archetype: "db", Count: 6},
		{Kind: KindTripBreaker, Node: "dc/s0/m0/b0", BudgetFraction: 0.5},
	}
	for _, q := range queries {
		// Fresh snapshots per worker count so the cached baseline cannot
		// mask a divergent recomputation.
		r1, err := snapFixture(t).Evaluate(context.Background(), q, 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", q.Kind, err)
		}
		r8, err := snapFixture(t).Evaluate(context.Background(), q, 8)
		if err != nil {
			t.Fatalf("%s workers=8: %v", q.Kind, err)
		}
		if a, b := mustJSON(t, r1), mustJSON(t, r8); a != b {
			t.Fatalf("%s diverged across workers:\n--- 1\n%s\n--- 8\n%s", q.Kind, a, b)
		}
	}
}

func TestEvaluateHonoursContext(t *testing.T) {
	snap := snapFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.Evaluate(ctx, Query{Kind: KindReplaceService, Service: "web"}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v, want context.Canceled", err)
	}
}

func TestGateHysteresis(t *testing.T) {
	g := newGate(2, 1)
	if !g.acquire() || !g.acquire() {
		t.Fatal("gate refused work below the limit")
	}
	if g.acquire() {
		t.Fatal("gate admitted past max in-flight")
	}
	// Armed: still shedding while in-flight sits above the readmit mark.
	g.release()
	g.release()
	if !g.acquire() {
		t.Fatal("gate still shedding after draining to the readmit mark")
	}
	g.release()
}

func TestServiceShedsAndRecovers(t *testing.T) {
	snap := snapFixture(t)
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	svc, err := NewService(func() (*Snapshot, error) {
		entered <- struct{}{}
		<-block
		return snap, nil
	}, Config{MaxInFlight: 1, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	results := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := svc.Evaluate(context.Background(), Query{Kind: KindReplaceService, Service: "web"})
		results <- err
	}()
	<-entered // the slot is taken and the evaluation is parked

	if _, err := svc.Evaluate(context.Background(), Query{Kind: KindReplaceService, Service: "web"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second concurrent query: %v, want ErrOverloaded", err)
	}
	close(block)
	wg.Wait()
	if err := <-results; err != nil {
		t.Fatalf("parked query failed: %v", err)
	}
	// The slot is free again: the next query must be admitted.
	if _, err := svc.Evaluate(context.Background(), Query{Kind: KindReplaceService, Service: "web"}); err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
}

func TestServiceDeadline(t *testing.T) {
	snap := snapFixture(t)
	svc, err := NewService(func() (*Snapshot, error) { return snap, nil },
		Config{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Evaluate(context.Background(), Query{Kind: KindReplaceService, Service: "web"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("nanosecond deadline: %v, want context.DeadlineExceeded", err)
	}
}

func TestServiceRetryAfter(t *testing.T) {
	snap := snapFixture(t)
	for _, tc := range []struct {
		deadline time.Duration
		want     time.Duration
	}{
		{time.Nanosecond, time.Second},
		{2 * time.Second, 2 * time.Second},
		{2500 * time.Millisecond, 3 * time.Second},
	} {
		svc, err := NewService(func() (*Snapshot, error) { return snap, nil }, Config{Deadline: tc.deadline})
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.RetryAfter(); got != tc.want {
			t.Errorf("RetryAfter with deadline %v = %v, want %v", tc.deadline, got, tc.want)
		}
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil, Config{}); !errors.Is(err, ErrNilSnapshotFn) {
		t.Fatalf("nil fn: %v", err)
	}
	fn := func() (*Snapshot, error) { return nil, errors.New("unused") }
	if _, err := NewService(fn, Config{MaxInFlight: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative max: %v", err)
	}
	if _, err := NewService(fn, Config{Deadline: -time.Second}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative deadline: %v", err)
	}
}

// freshReport aggregates a tree from scratch and summarizes it at nominal
// budgets: the reference every "after" report must match.
func freshReport(t *testing.T, s *Snapshot, tree *powertree.Node, extra map[string]timeseries.Series, workers int) Report {
	t.Helper()
	aggs, err := tree.AggregateAllParallel(s.powerFn(extra), workers)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.summarize(tree, aggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// placedAfterOracle re-runs a replace_service or add_instances query on a
// scratch clone — the same detaches and the same admissions, in the same
// order — and reports the resulting tree aggregated from scratch.
func placedAfterOracle(t *testing.T, s *Snapshot, q Query, workers int) Report {
	t.Helper()
	scratch := s.tree.Clone()
	extra := make(map[string]timeseries.Series)
	newOnline := func() *placement.Online {
		online, err := placement.NewOnline(scratch, placement.TraceFn(s.powerFn(extra)), q.policy())
		if err != nil {
			t.Fatal(err)
		}
		return online
	}
	switch q.Kind {
	case KindReplaceService:
		leafOf := scratch.InstanceLeaves()
		var ids []string
		for _, id := range scratch.AllInstances() {
			if s.services[id] == q.Service {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			scratch.Find(leafOf[id]).Detach(id)
		}
		online := newOnline()
		for _, id := range ids {
			if _, err := online.Admit(placement.Instance{ID: id, Service: q.Service}); err != nil && !errors.Is(err, placement.ErrNoCapacity) {
				t.Fatal(err)
			}
		}
	case KindAddInstances:
		var peers []timeseries.Series
		for _, id := range scratch.AllInstances() {
			if s.services[id] == q.Archetype {
				peers = append(peers, s.traces[id])
			}
		}
		tr, _ := meanOf(peers)
		online := newOnline()
		for i := 0; i < q.Count; i++ {
			id := syntheticID(q.Archetype, i)
			extra[id] = tr
			if _, err := online.Admit(placement.Instance{ID: id, Service: q.Archetype}); err != nil {
				delete(extra, id)
				break
			}
		}
	default:
		t.Fatalf("no placement oracle for %s", q.Kind)
	}
	return freshReport(t, s, scratch, extra, workers)
}

// TestPlacedAfterMatchesFreshAggregation pins the "after" reports of the
// two placing query kinds, which read the placer's incrementally maintained
// aggregates, against a re-run of the query whose scratch tree is
// aggregated from scratch — at workers 1 and 8, with one add_instances
// query stopping at a capacity rejection.
func TestPlacedAfterMatchesFreshAggregation(t *testing.T) {
	queries := []Query{
		{Kind: KindReplaceService, Service: "web"},
		{Kind: KindReplaceService, Service: "db", Policy: "best-fit"},
		{Kind: KindAddInstances, Archetype: "db", Count: 3},
		{Kind: KindAddInstances, Archetype: "batch", Count: 500},
	}
	rejected := false
	for _, workers := range []int{1, 8} {
		snap := snapFixture(t)
		for _, q := range queries {
			res, err := snap.Evaluate(context.Background(), q, workers)
			if err != nil {
				t.Fatalf("workers %d, %+v: %v", workers, q, err)
			}
			rejected = rejected || res.Rejected > 0
			want := placedAfterOracle(t, snap, q, workers)
			if a, b := mustJSON(t, res.After), mustJSON(t, want); a != b {
				t.Fatalf("workers %d, %+v: after report diverged from a fresh aggregation:\n--- placer\n%s\n--- fresh\n%s", workers, q, a, b)
			}
		}
	}
	if !rejected {
		t.Fatal("no add_instances query hit a capacity rejection")
	}
}
