package powertree

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func smallSpec() TopologySpec {
	return TopologySpec{
		Name: "dc1", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 100,
	}
}

func TestBuildShape(t *testing.T) {
	root, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[Level]int{}
	root.Walk(func(n *Node) { counts[n.Level]++ })
	want := map[Level]int{DC: 1, Suite: 2, MSB: 4, SB: 8, RPP: 16}
	for l, w := range want {
		if counts[l] != w {
			t.Errorf("level %s: %d nodes, want %d", l, counts[l], w)
		}
	}
	if len(root.Leaves()) != 16 {
		t.Fatalf("leaves = %d", len(root.Leaves()))
	}
	if root.Budget != 1600 {
		t.Fatalf("root budget = %v, want 1600", root.Budget)
	}
}

func TestBuildBudgetMargin(t *testing.T) {
	spec := smallSpec()
	spec.BudgetMargin = 0.10
	root, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each SB: 2 leaves * 100 * 1.1 = 220; MSB: 2*220*1.1 = 484, etc.
	sb := root.NodesAtLevel(SB)[0]
	if math.Abs(sb.Budget-220) > 1e-9 {
		t.Fatalf("SB budget = %v", sb.Budget)
	}
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	bad := smallSpec()
	bad.SuitesPerDC = 0
	if _, err := Build(bad); err != ErrBadFanout {
		t.Fatalf("want ErrBadFanout, got %v", err)
	}
	bad2 := smallSpec()
	bad2.LeafBudget = 0
	if _, err := Build(bad2); err != ErrBadBudget {
		t.Fatalf("want ErrBadBudget, got %v", err)
	}
}

func TestBuildDefaultName(t *testing.T) {
	spec := smallSpec()
	spec.Name = ""
	root, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "dc" {
		t.Fatalf("default name = %q", root.Name)
	}
}

func TestAttachDetach(t *testing.T) {
	root, _ := Build(smallSpec())
	leaf := root.Leaves()[0]
	if err := leaf.Attach("web-0"); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Attach("web-1"); err != nil {
		t.Fatal(err)
	}
	if err := root.Attach("web-2"); err == nil {
		t.Fatal("attaching to interior node must fail")
	}
	if root.InstanceCount() != 2 {
		t.Fatalf("InstanceCount = %d", root.InstanceCount())
	}
	if !leaf.Detach("web-0") {
		t.Fatal("Detach existing failed")
	}
	if leaf.Detach("nope") {
		t.Fatal("Detach missing should report false")
	}
	got := root.AllInstances()
	if len(got) != 1 || got[0] != "web-1" {
		t.Fatalf("AllInstances = %v", got)
	}
	root.ClearInstances()
	if root.InstanceCount() != 0 {
		t.Fatal("ClearInstances left instances")
	}
}

func TestFindAndParent(t *testing.T) {
	root, _ := Build(smallSpec())
	n := root.Find("dc1/s1/m0/b1/r0")
	if n == nil || n.Level != RPP {
		t.Fatalf("Find: %v", n)
	}
	if n.Parent().Name != "dc1/s1/m0/b1" {
		t.Fatalf("Parent: %v", n.Parent().Name)
	}
	if root.Find("missing") != nil {
		t.Fatal("Find missing should be nil")
	}
	if root.Parent() != nil {
		t.Fatal("root parent must be nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	root, _ := Build(smallSpec())
	leaf := root.Leaves()[0]
	if err := leaf.Attach("a"); err != nil {
		t.Fatal(err)
	}
	clone := root.Clone()
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	cloneLeaf := clone.Leaves()[0]
	if err := cloneLeaf.Attach("b"); err != nil {
		t.Fatal(err)
	}
	if len(leaf.Instances) != 1 {
		t.Fatal("clone mutated original")
	}
	if clone.InstanceCount() != 2 {
		t.Fatalf("clone InstanceCount = %d", clone.InstanceCount())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	root, _ := Build(smallSpec())
	root.Children[0].Budget = root.Budget * 2
	if err := root.Validate(); err == nil {
		t.Fatal("child budget above parent must fail validation")
	}

	root2, _ := Build(smallSpec())
	root2.Children[0].Name = root2.Name
	if err := root2.Validate(); err == nil {
		t.Fatal("duplicate names must fail validation")
	}

	root3, _ := Build(smallSpec())
	root3.Children[0].Instances = []string{"x"}
	if err := root3.Validate(); err == nil {
		t.Fatal("instances on interior node must fail validation")
	}

	root4, _ := Build(smallSpec())
	root4.Leaves()[0].Budget = -1
	if err := root4.Validate(); err == nil {
		t.Fatal("negative budget must fail validation")
	}
}

// tracePower builds a PowerFn from a map.
func tracePower(m map[string]timeseries.Series) PowerFn {
	return func(id string) (timeseries.Series, bool) {
		s, ok := m[id]
		return s, ok
	}
}

func TestAggregatePower(t *testing.T) {
	root, _ := Build(smallSpec())
	leaves := root.Leaves()
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{1, 2, 3}),
		"b": timeseries.New(t0, time.Minute, []float64{10, 0, 10}),
	}
	mustAttach(t, leaves[0], "a")
	mustAttach(t, leaves[1], "b")
	mustAttach(t, leaves[1], "ghost") // no trace

	aggs, err := root.AggregateAll(tracePower(traces))
	if err != nil {
		t.Fatal(err)
	}
	if missing := aggs.Missing(root); len(missing) != 1 || missing[0] != "ghost" {
		t.Fatalf("missing = %v", missing)
	}
	agg, ok := aggs.Trace(root)
	if !ok || !reflect.DeepEqual(agg.Values, []float64{11, 2, 13}) {
		t.Fatalf("agg = %v, %v", agg.Values, ok)
	}
	if p := aggs.Peak(root); p != 13 {
		t.Fatalf("Peak = %v", p)
	}
}

func TestAggregatePowerEmptySubtree(t *testing.T) {
	root, _ := Build(smallSpec())
	aggs, err := root.AggregateAll(tracePower(nil))
	if err != nil {
		t.Fatal(err)
	}
	if agg, ok := aggs.Trace(root); ok || !agg.Empty() {
		t.Fatalf("empty subtree trace: %v, %v", agg, ok)
	}
	if missing := aggs.Missing(root); len(missing) != 0 {
		t.Fatalf("empty subtree missing = %v", missing)
	}
	if p := aggs.Peak(root); p != 0 {
		t.Fatalf("Peak of empty = %v", p)
	}
}

func TestAggregatePowerMismatch(t *testing.T) {
	root, _ := Build(smallSpec())
	leaves := root.Leaves()
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{1, 2, 3}),
		"b": timeseries.New(t0, time.Minute, []float64{1}),
	}
	mustAttach(t, leaves[0], "a")
	mustAttach(t, leaves[0], "b")
	if _, err := root.AggregateAll(tracePower(traces)); err == nil {
		t.Fatal("mismatched traces must error")
	}
}

func TestSumOfPeaksFragmentationSignal(t *testing.T) {
	// Two leaves; two synchronous instances and two anti-phase instances.
	// Grouping synchronous ones together yields a larger sum of leaf peaks
	// than spreading them — the core fragmentation observation (Fig. 3).
	spec := TopologySpec{Name: "d", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100}
	traces := map[string]timeseries.Series{
		"sync1":  timeseries.New(t0, time.Minute, []float64{10, 0}),
		"sync2":  timeseries.New(t0, time.Minute, []float64{10, 0}),
		"async1": timeseries.New(t0, time.Minute, []float64{0, 10}),
		"async2": timeseries.New(t0, time.Minute, []float64{0, 10}),
	}

	bad, _ := Build(spec)
	mustAttach(t, bad.Leaves()[0], "sync1")
	mustAttach(t, bad.Leaves()[0], "sync2")
	mustAttach(t, bad.Leaves()[1], "async1")
	mustAttach(t, bad.Leaves()[1], "async2")

	good, _ := Build(spec)
	mustAttach(t, good.Leaves()[0], "sync1")
	mustAttach(t, good.Leaves()[0], "async1")
	mustAttach(t, good.Leaves()[1], "sync2")
	mustAttach(t, good.Leaves()[1], "async2")

	badSum, err := bad.SumOfPeaks(RPP, tracePower(traces))
	if err != nil {
		t.Fatal(err)
	}
	goodSum, err := good.SumOfPeaks(RPP, tracePower(traces))
	if err != nil {
		t.Fatal(err)
	}
	if badSum != 40 || goodSum != 20 {
		t.Fatalf("sum of peaks: bad=%v good=%v (want 40 / 20)", badSum, goodSum)
	}
	// Root-level sum of peaks is identical: placement cannot change the total.
	badRoot, _ := bad.SumOfPeaks(DC, tracePower(traces))
	goodRoot, _ := good.SumOfPeaks(DC, tracePower(traces))
	if badRoot != goodRoot {
		t.Fatalf("root peaks differ: %v vs %v", badRoot, goodRoot)
	}
}

func TestHeadroom(t *testing.T) {
	root, _ := Build(smallSpec())
	leaf := root.Leaves()[0]
	mustAttach(t, leaf, "a")
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{30, 70, 50}),
	}
	aggs, err := root.AggregateAll(tracePower(traces))
	if err != nil {
		t.Fatal(err)
	}
	if h := aggs.Headroom(leaf); h != 30 {
		t.Fatalf("Headroom = %v", h)
	}
}

func TestCheckBreakers(t *testing.T) {
	spec := TopologySpec{Name: "d", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 10}
	root, _ := Build(spec)
	leaf := root.Leaves()[0]
	mustAttach(t, leaf, "a")
	// Over budget for 3 minutes starting at index 1, then a 1-minute blip.
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{5, 12, 15, 11, 5, 12, 5}),
	}
	all, err := root.CheckBreakers(tracePower(traces), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// With one leaf, every ancestor shares its budget, so all 5 levels trip.
	if len(all) != 5 {
		t.Fatalf("trips = %+v", all)
	}
	trips := tripsAt(all, RPP)
	if len(trips) != 1 {
		t.Fatalf("RPP trips = %+v", trips)
	}
	tr := trips[0]
	if tr.Node != leaf.Name || tr.Start != 1 || tr.Duration != 3*time.Minute || tr.PeakOverdraw != 5 {
		t.Fatalf("trip = %+v", tr)
	}
	// With sustain=1min the blip also trips.
	all, err = root.CheckBreakers(tracePower(traces), time.Minute)
	if err != nil || len(tripsAt(all, RPP)) != 2 {
		t.Fatalf("short sustain trips = %+v, %v", all, err)
	}
}

func TestCheckBreakersTrailingEpisode(t *testing.T) {
	spec := TopologySpec{Name: "d", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 10}
	root, _ := Build(spec)
	mustAttach(t, root.Leaves()[0], "a")
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{5, 12, 13}),
	}
	all, err := root.CheckBreakers(tracePower(traces), 2*time.Minute)
	if err != nil || len(tripsAt(all, RPP)) != 1 {
		t.Fatalf("trailing episode: %+v, %v", all, err)
	}
}

func tripsAt(trips []BreakerTrip, l Level) []BreakerTrip {
	var out []BreakerTrip
	for _, tr := range trips {
		if tr.Level == l {
			out = append(out, tr)
		}
	}
	return out
}

func TestLevelPeaks(t *testing.T) {
	root, _ := Build(smallSpec())
	mustAttach(t, root.Leaves()[0], "a")
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{1, 4, 2}),
	}
	aggs, err := root.AggregateAll(tracePower(traces))
	if err != nil {
		t.Fatal(err)
	}
	leaves := aggs.NodesAtLevel(RPP)
	if len(leaves) != 16 {
		t.Fatalf("RPP count = %d", len(leaves))
	}
	if p := aggs.Peak(leaves[0]); p != 4 {
		t.Fatalf("peak = %v", p)
	}
}

func TestStringOutline(t *testing.T) {
	root, _ := Build(smallSpec())
	s := root.String()
	for _, want := range []string{"DC dc1", "SUITE dc1/s0", "RPP dc1/s0/m0/b0/r0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

func TestLevelStringAndBelow(t *testing.T) {
	if DC.String() != "DC" || RPP.String() != "RPP" || Level(99).String() == "" {
		t.Fatal("Level.String broken")
	}
}

// Property: for any fan-out spec, root budget equals leafCount*leafBudget
// (margin 0), and NodesAtLevel counts multiply through the fan-outs.
func TestBuildFanoutProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		spec := TopologySpec{
			Name:        "p",
			SuitesPerDC: int(a%3) + 1, MSBsPerSuite: int(b%3) + 1,
			SBsPerMSB: int(c%3) + 1, RPPsPerSB: int(d%3) + 1,
			LeafBudget: 50,
		}
		root, err := Build(spec)
		if err != nil {
			return false
		}
		leaves := spec.SuitesPerDC * spec.MSBsPerSuite * spec.SBsPerMSB * spec.RPPsPerSB
		if len(root.Leaves()) != leaves {
			return false
		}
		if math.Abs(root.Budget-float64(leaves)*50) > 1e-9 {
			return false
		}
		return root.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustAttach(t *testing.T, n *Node, id string) {
	t.Helper()
	if err := n.Attach(id); err != nil {
		t.Fatal(err)
	}
}
