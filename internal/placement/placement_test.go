package placement

import (
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

// testFixture builds a small fleet plus an empty tree for placement tests.
func testFixture(t *testing.T) ([]Instance, TraceFn, *powertree.Node) {
	t.Helper()
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 16, "dbA": 16, "hadoop": 16},
		Start: t0, Step: time.Hour, Weeks: 1,
		PhaseJitterHours: 1, AmplitudeSigma: 0.15, NoiseSigma: 0.01, Seed: 5,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	instances := make([]Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = Instance{ID: inst.ID, Service: inst.Service}
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "t", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 1, RPPsPerSB: 3,
		LeafBudget: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return instances, TraceFn(fleet.PowerFn()), tree
}

func TestObliviousPlacesAllGrouped(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Oblivious{}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
	// Oblivious placement groups services: the first leaf must host only one
	// service.
	first := tree.Leaves()[0].Instances
	if len(first) == 0 {
		t.Fatal("first leaf empty")
	}
	svc := first[0][:3]
	for _, id := range first {
		if id[:3] != svc {
			t.Fatalf("oblivious leaf mixes services: %v", first)
		}
	}
}

func TestRandomPlacesAll(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 3}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
	// Equal occupancy ±1.
	min, max := len(instances), 0
	for _, leaf := range tree.Leaves() {
		n := len(leaf.Instances)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("random occupancy spread: %d..%d", min, max)
	}
}

func TestRandomDeterministic(t *testing.T) {
	instances, traces, treeA := testFixture(t)
	_, _, treeB := testFixture(t)
	if err := (Random{Seed: 9}).Place(treeA, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := (Random{Seed: 9}).Place(treeB, instances, traces); err != nil {
		t.Fatal(err)
	}
	la, lb := treeA.Leaves(), treeB.Leaves()
	for i := range la {
		if len(la[i].Instances) != len(lb[i].Instances) {
			t.Fatal("same seed must reproduce the placement")
		}
		for j := range la[i].Instances {
			if la[i].Instances[j] != lb[i].Instances[j] {
				t.Fatal("same seed must reproduce the placement")
			}
		}
	}
}

func TestWorkloadAwarePlacesAll(t *testing.T) {
	instances, traces, tree := testFixture(t)
	w := WorkloadAware{TopServices: 3, Seed: 1}
	if err := w.Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadAwareBeatsOblivious(t *testing.T) {
	// The headline property: workload-aware placement yields a lower sum of
	// leaf peaks (less fragmentation) than oblivious placement.
	instances, traces, obliviousTree := testFixture(t)
	_, _, smartTree := testFixture(t)

	if err := (Oblivious{}).Place(obliviousTree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := (WorkloadAware{TopServices: 3, Seed: 1}).Place(smartTree, instances, traces); err != nil {
		t.Fatal(err)
	}
	pf := powertree.PowerFn(traces)
	oAggs, err := obliviousTree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	sAggs, err := smartTree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	if smartSum, obliviousSum := sAggs.SumOfPeaks(powertree.RPP), oAggs.SumOfPeaks(powertree.RPP); smartSum >= obliviousSum {
		t.Fatalf("workload-aware sum of peaks %v not below oblivious %v", smartSum, obliviousSum)
	}
	// Root peak is placement-invariant.
	oRoot, sRoot := oAggs.Peak(obliviousTree), sAggs.Peak(smartTree)
	if diff := oRoot - sRoot; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("root peak changed by placement: %v vs %v", oRoot, sRoot)
	}
}

func TestWorkloadAwareGlobalBasisAndIToI(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (WorkloadAware{TopServices: 3, Seed: 1, GlobalBasis: true}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
	_, _, tree2 := testFixture(t)
	if err := (WorkloadAware{Seed: 1, IToI: true, IToISample: 8}).Place(tree2, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree2, instances); err != nil {
		t.Fatal(err)
	}
}

func TestPlacersRejectOccupiedTree(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := tree.Leaves()[0].Attach("squatter"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Placer{Oblivious{}, Random{}, WorkloadAware{TopServices: 3}} {
		if err := p.Place(tree, instances, traces); err != ErrTreeOccupied {
			t.Fatalf("%T: want ErrTreeOccupied, got %v", p, err)
		}
	}
}

func TestWorkloadAwareMissingTrace(t *testing.T) {
	instances, _, tree := testFixture(t)
	none := TraceFn(func(string) (timeseries.Series, bool) { return timeseries.Series{}, false })
	err := (WorkloadAware{TopServices: 3}).Place(tree, instances, none)
	if err == nil {
		t.Fatal("missing traces must error")
	}
}

func TestWorkloadAwareFewerInstancesThanLeaves(t *testing.T) {
	_, traces, tree := testFixture(t)
	tiny := []Instance{{ID: "frontend-0000", Service: "frontend"}, {ID: "dbA-0000", Service: "dbA"}}
	if err := (WorkloadAware{TopServices: 2, Seed: 2}).Place(tree, tiny, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, tiny); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBadPlacements(t *testing.T) {
	instances, _, tree := testFixture(t)
	if err := Verify(tree, instances); err == nil {
		t.Fatal("empty tree must fail Verify")
	}
	leaf := tree.Leaves()[0]
	for _, inst := range instances {
		if err := leaf.Attach(inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatalf("all-on-one-leaf is still a complete placement: %v", err)
	}
	if err := leaf.Attach(instances[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, append(instances, Instance{ID: "extra"})); err == nil {
		t.Fatal("duplicate must fail Verify")
	}
}

func TestLevelAsynchrony(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (WorkloadAware{TopServices: 3, Seed: 1}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	scores, err := LevelAsynchrony(tree, powertree.RPP, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	for node, s := range scores {
		if s < 1 {
			t.Fatalf("asynchrony score below 1 at %s: %v", node, s)
		}
	}
}

func TestRemapImprovesOblivious(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Oblivious{}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	pf := powertree.PowerFn(traces)
	before, err := tree.SumOfPeaks(powertree.RPP, pf)
	if err != nil {
		t.Fatal(err)
	}
	swaps, err := Remap(tree, traces, RemapConfig{MaxSwaps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(swaps) == 0 {
		t.Fatal("remapping an oblivious placement should find improving swaps")
	}
	after, err := tree.SumOfPeaks(powertree.RPP, pf)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("remap did not reduce sum of peaks: %v -> %v", before, after)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatalf("remap corrupted placement: %v", err)
	}
	for _, sw := range swaps {
		if sw.GainA <= 0 || sw.GainB <= 0 {
			t.Fatalf("swap accepted without mutual gain: %+v", sw)
		}
	}
}

func TestRemapTerminatesOnGoodPlacement(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (WorkloadAware{TopServices: 3, Seed: 1}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	swaps, err := Remap(tree, traces, RemapConfig{MaxSwaps: 100})
	if err != nil {
		t.Fatal(err)
	}
	// A good placement should need few or no swaps, and must stay complete.
	if len(swaps) > 25 {
		t.Fatalf("too many swaps on an already-good placement: %d", len(swaps))
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestRemapSingleNodeNoop(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "solo", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	swaps, err := Remap(tree, func(string) (timeseries.Series, bool) { return timeseries.Series{}, false }, RemapConfig{})
	if err != nil || swaps != nil {
		t.Fatalf("single-node remap: %v %v", swaps, err)
	}
}

func TestObliviousMixFractionOrdering(t *testing.T) {
	// The mix fraction interpolates between fully packed (worst) and fully
	// dealt-out (best): sum of leaf peaks must not increase with the mix.
	instances, traces, _ := testFixture(t)
	pf := powertree.PowerFn(traces)
	var prev float64 = -1
	for _, mix := range []float64{0, 0.5, 1} {
		_, _, tree := testFixture(t)
		if err := (Oblivious{MixFraction: mix}).Place(tree, instances, traces); err != nil {
			t.Fatal(err)
		}
		if err := Verify(tree, instances); err != nil {
			t.Fatalf("mix %v: %v", mix, err)
		}
		sum, err := tree.SumOfPeaks(powertree.RPP, pf)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && sum > prev*1.02 {
			t.Fatalf("mix %v: sum of peaks %v should not exceed packed %v", mix, sum, prev)
		}
		if prev < 0 {
			prev = sum
		}
	}
}

func TestObliviousMixFractionClamps(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Oblivious{MixFraction: 3}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
	_, _, tree2 := testFixture(t)
	if err := (Oblivious{MixFraction: -1}).Place(tree2, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree2, instances); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadAwareClustersPerChild(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (WorkloadAware{TopServices: 3, Seed: 1, ClustersPerChild: 4}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}
