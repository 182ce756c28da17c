package core

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// runtimeFixture wires a fleet's generated traces through a store into a
// Runtime, exactly like a deployment would stream sensor data.
func runtimeFixture(t testing.TB) (*Runtime, []placement.Instance, *workload.Fleet, time.Time) {
	t.Helper()
	return runtimeFixtureWith(t, RuntimeConfig{})
}

// runtimeFixtureWith is runtimeFixture with an explicit runtime config.
func runtimeFixtureWith(t testing.TB, rcfg RuntimeConfig) (*Runtime, []placement.Instance, *workload.Fleet, time.Time) {
	t.Helper()
	return runtimeFixtureFor(t, Config{TopServices: 8, Seed: 1}, rcfg)
}

// runtimeFixtureFor is runtimeFixture with explicit framework and runtime
// configs.
func runtimeFixtureFor(t testing.TB, cfg Config, rcfg RuntimeConfig) (*Runtime, []placement.Instance, *workload.Fleet, time.Time) {
	t.Helper()
	dc, err := workload.StandardDCConfig(workload.DC2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dc.Gen.Step = time.Hour
	fleet, tree, err := workload.BuildDC(dc)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: 4 * 7 * 24 * time.Hour})
	rt, err := NewRuntime(New(cfg), store, tree, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
		for j, v := range inst.Trace.Values {
			if err := rt.Ingest(inst.ID, inst.Trace.TimeAt(j), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	endOfTraining := fleet.Instances[0].Trace.Start.Add(2 * 7 * 24 * time.Hour)
	return rt, instances, fleet, endOfTraining
}

func TestRuntimeBootstrapAndTick(t *testing.T) {
	rt, instances, fleet, trainEnd := runtimeFixture(t)

	if _, err := rt.Tick(trainEnd, 0); err != ErrNotPlaced {
		t.Fatalf("tick before bootstrap: %v", err)
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	if err := placement.Verify(rt.Tree(), instances); err != nil {
		t.Fatal(err)
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != ErrAlreadyPlaced {
		t.Fatalf("double bootstrap: %v", err)
	}

	// Tick over the held-out week.
	testEnd := trainEnd.Add(7 * 24 * time.Hour)
	rep, err := rt.Tick(testEnd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstNode == "" || rep.SumOfPeaks <= 0 {
		t.Fatalf("drift report: %+v", rep)
	}
	if len(rt.History()) != 1 {
		t.Fatalf("history = %d", len(rt.History()))
	}
	// The placement must stay complete whatever the monitor did.
	if err := placement.Verify(rt.Tree(), instances); err != nil {
		t.Fatal(err)
	}
	_ = fleet
}

// TestRuntimeBootstrapWorkersEquivalence: Bootstrap hands the framework's
// worker count to the batch placer, and the placement it lands on — and the
// tick after it — are bit-identical at any worker count.
func TestRuntimeBootstrapWorkersEquivalence(t *testing.T) {
	var trees [][]byte
	var reports []*DriftReport
	for _, w := range []int{1, 8} {
		rt, instances, _, trainEnd := runtimeFixtureFor(t, Config{TopServices: 8, Seed: 1, Workers: w}, RuntimeConfig{})
		if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rt.Tree().Save(&buf); err != nil {
			t.Fatal(err)
		}
		trees = append(trees, buf.Bytes())
		rep, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !bytes.Equal(trees[0], trees[1]) {
		t.Fatal("bootstrap placement differs between workers 1 and 8")
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("tick after bootstrap differs between workers 1 and 8:\n%+v\n%+v", reports[0], reports[1])
	}
}

func TestRuntimeConstructionErrors(t *testing.T) {
	fw := New(Config{})
	store := tracestore.New(tracestore.Config{})
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "r", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(nil, store, tree, RuntimeConfig{}); err == nil {
		t.Fatal("nil framework must error")
	}
	if _, err := NewRuntime(fw, nil, tree, RuntimeConfig{}); err == nil {
		t.Fatal("nil store must error")
	}
	if _, err := NewRuntime(fw, store, nil, RuntimeConfig{}); err == nil {
		t.Fatal("nil tree must error")
	}
	if err := tree.Leaves()[0].Attach("squatter"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(fw, store, tree, RuntimeConfig{}); err == nil {
		t.Fatal("occupied tree must error")
	}
}

func TestRuntimeBootstrapMissingHistory(t *testing.T) {
	fw := New(Config{})
	store := tracestore.New(tracestore.Config{Step: time.Hour})
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "r2", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(fw, store, tree, RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	asOf := time.Date(2016, 8, 8, 0, 0, 0, 0, time.UTC)
	err = rt.Bootstrap([]placement.Instance{{ID: "ghost", Service: "x"}}, asOf, 2)
	if err == nil {
		t.Fatal("bootstrap without telemetry must error")
	}
}

// TestFailedBootstrapLeavesNoDemands: a Bootstrap that fails leaves the
// runtime's demand ledger as it found it. The batch's second demand is
// invalid, so the call fails; a retry without demands must then see no gpu
// in use, where the first instance's {gpu: 4} used to stay on record and
// bind admission, remap and the gpu fragmentation rows.
func TestFailedBootstrapLeavesNoDemands(t *testing.T) {
	rt, instances, _, trainEnd := runtimeFixture(t)
	capacitateTree(rt.tree, powertree.ResourceVector{"gpu": 4})
	bad := append([]placement.Instance(nil), instances...)
	bad[0].Demands = powertree.ResourceVector{"gpu": 4}
	bad[1].Demands = powertree.ResourceVector{"gpu": -1}
	if err := rt.Bootstrap(bad, trainEnd, 2); !errors.Is(err, powertree.ErrBadDimension) {
		t.Fatalf("bootstrap with a negative demand: %v, want %v", err, powertree.ErrBadDimension)
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.demands) != 0 {
		t.Fatalf("demand ledger after a demand-free bootstrap: %v", rt.demands)
	}
	if used := rt.view.online.Used(rt.tree); used != nil {
		t.Fatalf("used capacity after a demand-free bootstrap: %v", used)
	}
}

// TestBootstrapRefusesOvercommit: the power-only placer is blind to gpu, so
// with every second instance demanding a whole leaf's gpu it stacks them.
// Bootstrap must refuse that placement with ErrNoCapacity naming a node and
// the dimension, and leave the runtime as NewRuntime made it, so a retry
// without demands succeeds.
func TestBootstrapRefusesOvercommit(t *testing.T) {
	rt, instances, _, trainEnd := runtimeFixture(t)
	capacitateTree(rt.tree, powertree.ResourceVector{"gpu": 4})
	gpu := append([]placement.Instance(nil), instances...)
	for i := 1; i < len(gpu); i += 2 {
		gpu[i].Demands = powertree.ResourceVector{"gpu": 4}
	}
	err := rt.Bootstrap(gpu, trainEnd, 2)
	if !errors.Is(err, placement.ErrNoCapacity) || !strings.Contains(err.Error(), "gpu") {
		t.Fatalf("overcommitting bootstrap: %v, want %v naming gpu", err, placement.ErrNoCapacity)
	}
	named := false
	rt.tree.Walk(func(n *powertree.Node) { named = named || strings.Contains(err.Error(), strconv.Quote(n.Name)) })
	if !named {
		t.Fatalf("refusal names no node: %v", err)
	}
	if rt.Placed() || rt.tree.InstanceCount() != 0 || len(rt.Quarantined()) != 0 {
		t.Fatalf("refused bootstrap left placed=%v, %d instances, quarantined %v",
			rt.Placed(), rt.tree.InstanceCount(), rt.Quarantined())
	}
	if _, ok := rt.InstanceQuality(gpu[0].ID); ok {
		t.Fatal("refused bootstrap recorded trace quality")
	}
	rt.mu.Lock()
	demands := len(rt.demands)
	rt.mu.Unlock()
	if demands != 0 {
		t.Fatalf("refused bootstrap left %d demands on record", demands)
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatalf("demand-free retry: %v", err)
	}
}

// TestBootstrapEqualsOptimize: the runtime bootstraps with the offline
// pipeline's placer, so on the same fleet and training weeks its tree and
// Optimize's are byte-identical at any worker count.
func TestBootstrapEqualsOptimize(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := Config{TopServices: 8, Seed: 1, Workers: workers}
		rt, instances, fleet, trainEnd := runtimeFixtureFor(t, cfg, RuntimeConfig{})
		res, err := New(cfg).Optimize(fleet, rt.Tree())
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := rt.Tree().Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := res.OptimizedTree.Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers %d: Bootstrap's tree differs from Optimize's", workers)
		}
	}
}
