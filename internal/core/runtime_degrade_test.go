package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
)

var dEpoch = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

const dWeek = 7 * 24 * time.Hour

func TestRuntimeConfigValidation(t *testing.T) {
	fw := New(Config{})
	store := tracestore.New(tracestore.Config{})
	mkTree := func() *powertree.Node {
		tree, err := powertree.Build(powertree.TopologySpec{
			Name: "v", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	cases := []struct {
		name string
		cfg  RuntimeConfig
		want error
	}{
		{"negative score floor", RuntimeConfig{ScoreFloor: -0.1}, ErrBadScoreFloor},
		{"negative max swaps", RuntimeConfig{MaxSwapsPerTick: -1}, ErrBadMaxSwaps},
		{"all defaults", RuntimeConfig{}, nil},
		{"explicit values", RuntimeConfig{ScoreFloor: 1.5, MaxSwapsPerTick: 8}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := NewRuntime(fw, store, mkTree(), tc.cfg)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rt.scoreFloor <= 0 || rt.maxSwaps <= 0 {
				t.Fatalf("defaults not applied: %+v", rt)
			}
		})
	}
}

// degradeFixture builds a 2-leaf tree with four instances on synthetic
// sinusoidal traces and streams `weeks` weeks into the runtime via Ingest
// (so fault injection applies), skipping instances named in dark for the
// final week.
func degradeFixture(t *testing.T, cfg RuntimeConfig, leafBudget float64, weeks int, dark map[string]bool) (*Runtime, []placement.Instance, time.Time) {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "d", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: leafBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: time.Duration(weeks+1) * dWeek})
	rt, err := NewRuntime(New(Config{TopServices: 2, Seed: 1}), store, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	instances := []placement.Instance{
		{ID: "a", Service: "web"}, {ID: "b", Service: "web"},
		{ID: "c", Service: "db"}, {ID: "d", Service: "db"},
	}
	steps := weeks * 168
	for idx, inst := range instances {
		phase := float64(idx) * math.Pi / 3
		for s := 0; s < steps; s++ {
			at := dEpoch.Add(time.Duration(s) * time.Hour)
			if dark[inst.ID] && s >= (weeks-1)*168 {
				continue
			}
			w := 80 + 40*math.Sin(2*math.Pi*float64(s%168)/168+phase)
			if err := rt.Ingest(inst.ID, at, w); err != nil {
				t.Fatalf("ingest %s at %v: %v", inst.ID, at, err)
			}
		}
	}
	return rt, instances, dEpoch.Add(2 * dWeek)
}

func TestTickQuarantineAndFallback(t *testing.T) {
	// Three weeks of data; instance d goes dark for the final (test) week.
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 3, map[string]bool{"d": true})
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Quarantined()); n != 0 {
		t.Fatalf("bootstrap quarantined %d instances on full history", n)
	}
	rep, err := rt.Tick(trainEnd.Add(dWeek), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "d" {
		t.Fatalf("Quarantined = %v, want [d]", rep.Quarantined)
	}
	if got := rt.Quarantined(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("runtime Quarantined = %v", got)
	}
	q, ok := rt.InstanceQuality("d")
	if !ok || q.Grade != tracestore.GradeNoData {
		t.Fatalf("quality for d = %+v, %v", q, ok)
	}
	if q, ok := rt.InstanceQuality("a"); !ok || q.Grade != tracestore.GradeGood {
		t.Fatalf("quality for a = %+v, %v", q, ok)
	}
	// The tick still produced a full drift report despite the dark instance.
	if rep.WorstNode == "" || rep.SumOfPeaks <= 0 {
		t.Fatalf("degraded tick report: %+v", rep)
	}
}

func TestBootstrapQuarantinesUnknownInstance(t *testing.T) {
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 3, nil)
	// A placed instance the store has never heard of: quarantined at
	// bootstrap, placed from its service's reference trace.
	instances = append(instances, placement.Instance{ID: "ghost", Service: "web"})
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	got := rt.Quarantined()
	if len(got) != 1 || got[0] != "ghost" {
		t.Fatalf("Quarantined = %v, want [ghost]", got)
	}
	if err := placement.Verify(rt.Tree(), instances); err != nil {
		t.Fatal(err)
	}

	// Every later tick reads it the same way: quarantined, graded no-data,
	// and scored from the mean of its service's tick-window traces.
	rep, err := rt.Tick(trainEnd.Add(dWeek), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "ghost" {
		t.Fatalf("tick Quarantined = %v, want [ghost]", rep.Quarantined)
	}
	if q, ok := rt.InstanceQuality("ghost"); !ok || q.Grade != tracestore.GradeNoData {
		t.Fatalf("tick quality for ghost = %+v, %v", q, ok)
	}
	var want []float64
	for _, id := range []string{"a", "b"} {
		tr, q, err := rt.store.SnapshotQuality(id, trainEnd, trainEnd.Add(dWeek))
		if err != nil || q.Grade == tracestore.GradeNoData {
			t.Fatalf("%s: %+v %v", id, q, err)
		}
		if want == nil {
			want = make([]float64, tr.Len())
		}
		for i, v := range tr.Values {
			want[i] += v / 2
		}
	}
	rt.mu.Lock()
	ref := rt.view.traces["ghost"]
	rt.mu.Unlock()
	if len(ref.Values) != len(want) {
		t.Fatalf("ghost scored from %d slots, want %d", len(ref.Values), len(want))
	}
	for i := range want {
		if ref.Values[i] != timeseries.Snap(want[i]) {
			t.Fatalf("ghost slot %d = %v, want the web mean %v on the scoring grid", i, ref.Values[i], want[i])
		}
	}
}

func TestIngestRetriesTransientErrors(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "r", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Profile{Seed: 7, TransientRate: 1}, time.Hour, tree)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour})
	rt, err := NewRuntime(New(Config{}), store, tree, RuntimeConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}

	// Every first append fails transiently; the bounded retry must land the
	// reading anyway.
	before := obsIngestRetries.Value()
	if err := rt.Ingest("a", dEpoch, 100); err != nil {
		t.Fatal(err)
	}
	if got := obsIngestRetries.Value() - before; got == 0 || got > ingestRetries {
		t.Fatalf("%d ingest retries for one transiently failing append, want 1..%d", got, ingestRetries)
	}
	if _, q, err := store.SnapshotQuality("a", dEpoch, dEpoch.Add(time.Hour)); err != nil || q.Grade == tracestore.GradeNoData {
		t.Fatalf("reading never landed: %+v %v", q, err)
	}

	// Non-transient errors surface immediately, without retrying. (Checked
	// on a fault-free runtime so no injected transient precedes the store's
	// own rejection.)
	plain, err := NewRuntime(New(Config{}), tracestore.New(tracestore.Config{Step: time.Hour}), budTree(t), RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before = obsIngestRetries.Value()
	if err := plain.Ingest("a", dEpoch, -5); !errors.Is(err, tracestore.ErrBadReading) {
		t.Fatalf("bad reading error = %v", err)
	}
	if got := obsIngestRetries.Value() - before; got != 0 {
		t.Fatalf("retried a permanent error %v times", got)
	}
}

// budTree is a tiny tree helper for retry tests.
func budTree(t *testing.T) *powertree.Node {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "p", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestTickEscalatesInjectedTripAndReleases(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "e", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	tripLeaf := tree.Leaves()[0].Name
	trainEnd := dEpoch.Add(2 * dWeek)
	inj, err := faults.New(faults.Profile{
		Seed: 3,
		Trips: []faults.TripWindow{{
			Node: tripLeaf, Start: trainEnd.Add(24 * time.Hour),
			Duration: 48 * time.Hour, BudgetFraction: 0.2,
		}},
	}, time.Hour, tree)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: 5 * dWeek})
	rt, err := NewRuntime(New(Config{TopServices: 2, Seed: 1}), store, tree, RuntimeConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	instances := []placement.Instance{
		{ID: "a", Service: "web"}, {ID: "b", Service: "web"},
		{ID: "c", Service: "db"}, {ID: "d", Service: "db"},
	}
	for idx, inst := range instances {
		phase := float64(idx) * math.Pi / 3
		for s := 0; s < 4*168; s++ {
			w := 80 + 40*math.Sin(2*math.Pi*float64(s%168)/168+phase)
			if err := rt.Ingest(inst.ID, dEpoch.Add(time.Duration(s)*time.Hour), w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	budgets := func() map[string]float64 {
		out := make(map[string]float64)
		tree.Walk(func(n *powertree.Node) { out[n.Name] = n.Budget })
		return out
	}
	nominal := budgets()

	// First test week overlaps the trip: the leaf's backup feed carries 20%
	// of nominal budget, the two-instance draw violates it, and the
	// emergency cap arms and sheds.
	rep, err := rt.Tick(trainEnd.Add(dWeek), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ActiveTrips) != 1 || rep.ActiveTrips[0].Node != tripLeaf {
		t.Fatalf("ActiveTrips = %+v", rep.ActiveTrips)
	}
	if len(rep.BreakerTrips) == 0 {
		t.Fatal("no breaker violations at the reduced budget")
	}
	// The trip reaches the breaker check through a budget overlay: the live
	// budgets are untouched, and the trips equal scaling the tree in place
	// and restoring it, over the same aggregates.
	if got := budgets(); !reflect.DeepEqual(got, nominal) {
		t.Fatalf("tick left budgets %v, want %v", got, nominal)
	}
	rt.mu.Lock()
	leaf := tree.Find(tripLeaf)
	leaf.Budget *= rep.ActiveTrips[0].Budget()
	want := rt.view.online.Aggregates().CheckBreakers(2 * rt.store.Step())
	leaf.Budget = nominal[tripLeaf]
	rt.mu.Unlock()
	if !reflect.DeepEqual(rep.BreakerTrips, want) {
		t.Fatalf("BreakerTrips = %+v, mutate-and-restore oracle %+v", rep.BreakerTrips, want)
	}
	if len(rep.EmergencyThrottles) == 0 {
		t.Fatal("no emergency throttles issued")
	}
	if nodes := rt.EmergencyNodes(); len(nodes) != 1 || nodes[0] != tripLeaf {
		t.Fatalf("EmergencyNodes = %v, want [%s]", nodes, tripLeaf)
	}

	// Second test week: the trip has cleared, so the cap releases.
	rep, err = rt.Tick(trainEnd.Add(2*dWeek), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ActiveTrips) != 0 {
		t.Fatalf("trips still active: %+v", rep.ActiveTrips)
	}
	if nodes := rt.EmergencyNodes(); len(nodes) != 0 {
		t.Fatalf("emergency caps not released: %v", nodes)
	}
	if len(rt.History()) != 2 {
		t.Fatalf("history = %d", len(rt.History()))
	}
}

func TestFlushFaultsDrainsReorderBuffer(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "f", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Profile{Seed: 11, ReorderFraction: 1}, time.Hour, tree)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour})
	rt, err := NewRuntime(New(Config{}), store, tree, RuntimeConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if err := rt.Ingest("a", dEpoch.Add(time.Duration(s)*time.Hour), 100); err != nil {
			t.Fatal(err)
		}
	}
	// Every reading is reordered, so the buffer still holds the late ones;
	// Flush must land them so the end-of-replay window is complete.
	if err := rt.FlushFaults(); err != nil {
		t.Fatal(err)
	}
	_, q, err := store.SnapshotQuality("a", dEpoch, dEpoch.Add(4*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if q.Coverage != 1 {
		t.Fatalf("coverage after flush = %v, want 1", q.Coverage)
	}
}

// TestLeafOutageFollowsPlacement: an injector built, as a daemon builds it,
// on the runtime's tree while that tree is still empty must still key each
// whole-leaf outage on the leaf the instance is placed on once Bootstrap
// has placed it. After Bootstrap a reading is lost to an outage exactly
// when its own leaf's outage fires (read from a reference injector), and
// some slot loses one leaf but not another: the outage is no fleet-wide
// blackout. Ingest then runs while admissions move the placement under it.
func TestLeafOutageFollowsPlacement(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "o", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 4, LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainEnd := dEpoch.Add(2 * dWeek)
	profile := faults.Profile{Seed: 5, LeafOutageRate: 0.3}.Activated(trainEnd, 0)
	inj, err := faults.New(profile, time.Hour, tree)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: 4 * dWeek})
	rt, err := NewRuntime(New(Config{TopServices: 2, Seed: 1}), store, tree, RuntimeConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	var instances []placement.Instance
	for i := 0; i < 8; i++ {
		instances = append(instances, placement.Instance{ID: fmt.Sprintf("i%d", i), Service: fmt.Sprintf("s%d", i%2)})
	}
	watts := func(i, s int) float64 { return 80 + 40*math.Sin(2*math.Pi*float64(s%24)/24+float64(i)) }
	arrival := placement.Instance{ID: "x", Service: "s0"} // history only: admitted below
	for s := 0; s < 2*168; s++ {
		for i, inst := range append(instances, arrival) {
			if err := rt.Ingest(inst.ID, dEpoch.Add(time.Duration(s)*time.Hour), watts(i, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	leafOf := tree.InstanceLeaves()
	drops := obs.Default().Counter("smoothop_faults_leaf_outage_drops_total", "")
	type reading struct {
		id   string
		slot int
	}
	lost := make(map[reading]bool)
	for s := 2 * 168; s < 3*168; s++ {
		for i, inst := range instances {
			before := drops.Value()
			if err := rt.Ingest(inst.ID, dEpoch.Add(time.Duration(s)*time.Hour), watts(i, s)); err != nil {
				t.Fatal(err)
			}
			lost[reading{inst.ID, s}] = drops.Value() != before
		}
	}
	ref, err := faults.New(profile, time.Hour, tree)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make(map[string]bool)
	for _, leaf := range leafOf {
		hosts[leaf] = true
	}
	outages, apart := 0, 0
	for s := 2 * 168; s < 3*168; s++ {
		at := dEpoch.Add(time.Duration(s) * time.Hour)
		dark := make(map[string]bool)
		for _, inst := range instances {
			leaf := leafOf[inst.ID]
			fired := len(ref.Feed("probe", leaf, at, 1)) == 0
			if lost[reading{inst.ID, s}] != fired {
				t.Fatalf("slot %d: %s on %s lost %v, its leaf's outage fired %v", s, inst.ID, leaf, !fired, fired)
			}
			if fired {
				outages++
				dark[leaf] = true
			}
		}
		if len(dark) > 0 && len(dark) < len(hosts) {
			apart++
		}
	}
	if outages == 0 || apart == 0 {
		t.Fatalf("%d readings lost to leaf outages, %d slots losing some leaves only: want both", outages, apart)
	}

	done := make(chan error, 1)
	go func() {
		for k := 0; k < 20; k++ {
			if _, err := rt.AdmitInstance(arrival.ID, arrival.Service, trainEnd, 2); err != nil {
				done <- err
				return
			}
			if _, err := rt.RetireInstance(arrival.ID); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for s := 3 * 168; s < 3*168+48; s++ {
		for i, inst := range instances {
			if err := rt.Ingest(inst.ID, dEpoch.Add(time.Duration(s)*time.Hour), watts(i, s)); err != nil {
				t.Error(err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestIngestRunMatchesIngest: a week fed one instance-day run at a time
// leaves the store byte for byte as the same readings fed one by one
// through Ingest, with no injector and with a heavy one, frequent leaf
// outages included, after Bootstrap has placed the instances.
func TestIngestRunMatchesIngest(t *testing.T) {
	trainEnd := dEpoch.Add(2 * dWeek)
	watts := func(i, s int) float64 { return 80 + 40*math.Sin(2*math.Pi*float64(s%24)/24+float64(i)) }
	var instances []placement.Instance
	for i := 0; i < 8; i++ {
		instances = append(instances, placement.Instance{ID: fmt.Sprintf("i%d", i), Service: fmt.Sprintf("s%d", i%2)})
	}
	for _, faulted := range []bool{false, true} {
		saved := make([]string, 2)
		for side, runs := range []bool{false, true} {
			tree, err := powertree.Build(powertree.TopologySpec{
				Name: "r", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 4, LeafBudget: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			var cfg RuntimeConfig
			if faulted {
				p := faults.Heavy(9).Activated(trainEnd, 0)
				p.LeafOutageRate = 0.3
				if cfg.Faults, err = faults.New(p, time.Hour, tree); err != nil {
					t.Fatal(err)
				}
			}
			store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: 4 * dWeek})
			rt, err := NewRuntime(New(Config{TopServices: 2, Seed: 1}), store, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingest := func(days, from int, runs bool) {
				for i, inst := range instances {
					for d := from; d < from+days; d++ {
						day := make([]float64, 24)
						for h := range day {
							day[h] = watts(i, 24*d+h)
						}
						start := dEpoch.Add(time.Duration(d) * 24 * time.Hour)
						if runs {
							if err := rt.IngestRun(inst.ID, start, day); err != nil {
								t.Fatal(err)
							}
							continue
						}
						for h, w := range day {
							if err := rt.Ingest(inst.ID, start.Add(time.Duration(h)*time.Hour), w); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			ingest(14, 0, true)
			if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
				t.Fatal(err)
			}
			ingest(7, 14, runs)
			if err := rt.FlushFaults(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := store.Save(&buf); err != nil {
				t.Fatal(err)
			}
			saved[side] = buf.String()
		}
		if saved[0] != saved[1] {
			t.Fatalf("faulted %v: runs left the store\n%s\nreadings one by one left\n%s", faulted, saved[1], saved[0])
		}
	}
}
