package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/capping"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// tripStart is where tripFixture's telemetry window begins; it runs 48 h.
var tripStart = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

// tripFixture is a four-level placement (2 suites, 2 MSBs, 4 SBs, 8 RPPs —
// 17 nodes) with four services of phase-shifted traces, three instances per
// RPP, and one RPP whose residents already exceed its budget at baseline.
func tripFixture(t *testing.T) *Snapshot {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "dc", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 2, LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[string]timeseries.Series)
	services := make(map[string]string)
	leaves := tree.Leaves()
	for i := 0; i < 24; i++ {
		svc := []string{"web", "db", "batch", "cache"}[i%4]
		id := fmt.Sprintf("%s-%d", svc, i)
		vals := make([]float64, 48)
		for k := range vals {
			vals[k] = 150 + 100*math.Sin(2*math.Pi*float64(k+6*(i%4))/24) + float64(i)
		}
		traces[id] = timeseries.New(tripStart, time.Hour, vals)
		services[id] = svc
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	leaves[0].Budget = 400
	snap, err := NewSnapshot(tree, traces, services, tripStart.Add(48*time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// tripOracle is trip_breaker as evaluated before the budget overlay: a
// fresh baseline, then a scratch clone with the tripped node's budget
// scaled in place, the clone re-aggregated from scratch, and one capping
// step on the clone with every peak recomputed.
func tripOracle(t *testing.T, s *Snapshot, q Query, workers int) (*Result, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	res := &Result{Kind: q.Kind, AsOf: s.asOf, Before: freshReport(t, s, s.tree, nil, workers)}
	scratch := s.tree.Clone()
	node := scratch.Find(q.Node)
	if node == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, q.Node)
	}
	trip := faults.TripWindow{Node: q.Node, Start: q.Start, Duration: time.Duration(q.DurationSeconds * float64(time.Second)), BudgetFraction: q.BudgetFraction}
	var start, end time.Time
	haveWindow := false
	if ids := scratch.AllInstances(); len(ids) > 0 {
		if tr := s.traces[ids[0]]; tr.Len() > 0 {
			start, end, haveWindow = tr.Start, tr.Start.Add(time.Duration(tr.Len())*tr.Step), true
		}
	}
	applied := true
	tripStart, tripEnd := trip.Start, trip.Start.Add(trip.Duration)
	if trip.Start.IsZero() {
		tripStart, tripEnd = start, end
	} else {
		if trip.Duration == 0 {
			tripEnd = end
		}
		applied = haveWindow && tripStart.Before(end) && start.Before(tripEnd)
	}
	res.Trip = &TripView{Node: q.Node, Start: tripStart, Until: tripEnd, BudgetFraction: trip.Budget(), Applied: applied}
	if applied {
		node.Budget *= trip.Budget()
	}
	if res.After = freshReport(t, s, scratch, nil, workers); !applied {
		return res, nil
	}
	capper, err := capping.New(scratch, capping.Config{SustainSteps: 1})
	if err != nil {
		return nil, err
	}
	throttles, _, err := capper.Step(func(id string) (capping.InstanceState, bool) {
		tr, ok := s.traces[id]
		if !ok || tr.Len() == 0 {
			return capping.InstanceState{}, false
		}
		p := tr.Peak()
		return capping.InstanceState{Power: p, MinPower: 0.5 * p, Priority: capping.PriorityBackend}, true
	})
	if err != nil {
		return nil, err
	}
	res.Throttles = len(throttles)
	for _, th := range throttles {
		res.ShedWatts += th.Shed
	}
	return res, nil
}

// TestTripBreakerMatchesCloneOracle pins the overlay path byte for byte
// against tripOracle: every node of a multi-level fixture, each budget
// fraction, windows inside, across and outside the telemetry, a node that
// already violates at baseline, at workers 1 and 8.
func TestTripBreakerMatchesCloneOracle(t *testing.T) {
	windows := []struct {
		start   time.Time
		seconds float64
	}{
		{},                                       // the whole telemetry window
		{tripStart.Add(6 * time.Hour), 6 * 3600}, // inside
		{tripStart.Add(40 * time.Hour), 0},       // until the window's end
		{tripStart.Add(-10 * time.Hour), 12 * 3600},
		{tripStart.Add(-10 * time.Hour), 5 * 3600}, // ends before the data
		{tripStart.Add(48 * time.Hour), 3600},      // starts at the window's end
		{time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), 3600},
	}
	var violating, throttled, unapplied bool
	for _, workers := range []int{1, 8} {
		snap := tripFixture(t)
		var nodes []string
		snap.tree.Walk(func(n *powertree.Node) { nodes = append(nodes, n.Name) })
		for _, node := range nodes {
			for _, f := range []float64{0, 0.1, 0.5, 1} {
				for _, w := range windows {
					q := Query{Kind: KindTripBreaker, Node: node, Start: w.start, DurationSeconds: w.seconds, BudgetFraction: f}
					got, err := snap.Evaluate(context.Background(), q, workers)
					if err != nil {
						t.Fatal(err)
					}
					want, err := tripOracle(t, snap, q, workers)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := mustJSON(t, got), mustJSON(t, want); a != b {
						t.Fatalf("workers %d, %+v: overlay diverged from the clone oracle:\n--- overlay\n%s\n--- oracle\n%s", workers, q, a, b)
					}
					violating = violating || len(got.Before.BreakerViolations) > 0
					throttled = throttled || got.Throttles > 0
					unapplied = unapplied || !got.Trip.Applied
				}
			}
		}
	}
	if !violating || !throttled || !unapplied {
		t.Fatalf("fixture missed a case: baseline violation %v, throttles %v, unapplied trip %v", violating, throttled, unapplied)
	}
}

// TestTripBreakerWritesNothing: on a warm snapshot, trips run no
// aggregation and leave the snapshot's tree — budgets and instance lists —
// as captured.
func TestTripBreakerWritesNothing(t *testing.T) {
	snap := tripFixture(t)
	ctx := context.Background()
	if _, err := snap.Evaluate(ctx, Query{Kind: KindTripBreaker, Node: snap.tree.Name}, 1); err != nil {
		t.Fatal(err)
	}
	var captured, after bytes.Buffer
	if err := snap.tree.Save(&captured); err != nil {
		t.Fatal(err)
	}
	sweeps := obs.Default().Counter("smoothop_powertree_aggregations_total", "")
	before := sweeps.Value()
	snap.tree.Walk(func(n *powertree.Node) {
		if _, err := snap.Evaluate(ctx, Query{Kind: KindTripBreaker, Node: n.Name, BudgetFraction: 0.1}, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got := sweeps.Value() - before; got != 0 {
		t.Fatalf("trips on a warm snapshot ran %d aggregations, want 0", got)
	}
	if err := snap.tree.Save(&after); err != nil {
		t.Fatal(err)
	}
	if captured.String() != after.String() {
		t.Fatalf("trips wrote the snapshot's tree:\n--- captured\n%s\n--- after\n%s", captured.String(), after.String())
	}
}

// TestConcurrentTripsMatchSerial races trips on every node against one cold
// snapshot — so the baseline and the peak cache are raced too — and
// requires each answer to match a serial evaluation. Run with -race.
func TestConcurrentTripsMatchSerial(t *testing.T) {
	serial := tripFixture(t)
	var queries []Query
	serial.tree.Walk(func(n *powertree.Node) {
		queries = append(queries, Query{Kind: KindTripBreaker, Node: n.Name, BudgetFraction: 0.5})
	})
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := serial.Evaluate(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustJSON(t, res)
	}
	shared := tripFixture(t)
	got := make([]string, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			res, err := shared.Evaluate(context.Background(), q, 8)
			if err != nil {
				errs[i] = err
				return
			}
			b, err := json.MarshalIndent(res, "", "  ")
			got[i], errs[i] = string(b), err
		}(i, q)
	}
	wg.Wait()
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("%s: %v", q.Node, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("concurrent trip on %s diverged from the serial answer:\n--- concurrent\n%s\n--- serial\n%s", q.Node, got[i], want[i])
		}
	}
}

// TestTripDurationOverflow: a duration_seconds too long for time.Duration
// used to wrap negative, so an in-window trip came back not applied with an
// end centuries before its start. Such a duration is now a bad query, and
// the longest one that fits still evaluates.
func TestTripDurationOverflow(t *testing.T) {
	snap := snapFixture(t)
	start := time.Date(2017, 6, 5, 6, 0, 0, 0, time.UTC) // inside the fixture's window
	for _, secs := range []float64{1e10, 9.3e9, math.Inf(1), math.NaN()} {
		q := Query{Kind: KindTripBreaker, Node: "dc", Start: start, DurationSeconds: secs}
		if _, err := snap.Evaluate(context.Background(), q, 1); !errors.Is(err, ErrBadQuery) {
			t.Errorf("duration_seconds %v: err = %v, want ErrBadQuery", secs, err)
		}
	}
	res, err := snap.Evaluate(context.Background(), Query{Kind: KindTripBreaker, Node: "dc", Start: start, DurationSeconds: 9.2e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trip.Applied || res.Trip.Until.Before(res.Trip.Start) {
		t.Fatalf("longest representable trip = %+v, want applied with until after start", res.Trip)
	}
}
