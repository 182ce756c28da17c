package esd

import (
	"math"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func mk(step time.Duration, vals ...float64) timeseries.Series {
	return timeseries.New(t0, step, vals)
}

func TestBatteryValidate(t *testing.T) {
	good := TypicalUPS(1000, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Battery{
		{CapacityWh: 0, MaxDischargeW: 1, MaxChargeW: 1, Efficiency: 0.9},
		{CapacityWh: 1, MaxDischargeW: 0, MaxChargeW: 1, Efficiency: 0.9},
		{CapacityWh: 1, MaxDischargeW: 1, MaxChargeW: 1, Efficiency: 0},
		{CapacityWh: 1, MaxDischargeW: 1, MaxChargeW: 1, Efficiency: 1.5},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("battery %d must be invalid", i)
		}
	}
}

func TestShaveShortPeakCovered(t *testing.T) {
	// A 10-minute, 100 W-over peak against a 5-minute-autonomy battery:
	// capacity = 1000 W × 5/60 h ≈ 83 Wh, the peak needs 100 W × 1/6 h ≈ 17 Wh.
	trace := mk(time.Minute, 900, 1000, 1100, 1100, 1100, 1100, 1100, 1100, 1100, 1100, 1100, 1100, 900, 900)
	res, err := Shave(trace, 1000, TypicalUPS(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered() {
		t.Fatalf("short peak must be covered: %+v", res)
	}
	if res.Shaved.Peak() > 1000+1e-9 {
		t.Fatalf("shaved peak %v above budget", res.Shaved.Peak())
	}
	if res.AbsorbedWh <= 0 || math.Abs(res.AbsorbedWh-res.OverEnergyWh) > 1e-9 {
		t.Fatalf("absorption mismatch: %+v", res)
	}
}

func TestShaveHourLongPeakDepletes(t *testing.T) {
	// The paper's argument (§1): an hours-long peak exhausts a
	// minutes-sized battery. 3 hours at 200 W over budget vs 10 minutes of
	// autonomy.
	n := 5 * 60
	vals := make([]float64, n)
	for i := range vals {
		if i >= 60 && i < 240 {
			vals[i] = 1200
		} else {
			vals[i] = 800
		}
	}
	res, err := Shave(mk(time.Minute, vals...), 1000, TypicalUPS(1000, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered() {
		t.Fatal("an hour-scale peak must overwhelm a minutes-scale battery")
	}
	if res.MinChargeWh > 1e-9 {
		t.Fatal("battery must run dry")
	}
	if res.AbsorbedWh >= res.OverEnergyWh {
		t.Fatalf("cannot absorb the whole peak: %+v", res)
	}
	// Coverage is roughly autonomy/peak-length ≈ (167 Wh)/(600 Wh) ≈ 28%.
	frac := res.AbsorbedWh / res.OverEnergyWh
	if frac > 0.5 {
		t.Fatalf("coverage fraction suspiciously high: %v", frac)
	}
}

func TestShaveRecharges(t *testing.T) {
	// Peak, valley, peak: the battery must recharge in the valley and cover
	// the second peak too.
	var vals []float64
	peak := func() {
		for i := 0; i < 5; i++ {
			vals = append(vals, 1100)
		}
	}
	valley := func(n int) {
		for i := 0; i < n; i++ {
			vals = append(vals, 500)
		}
	}
	valley(5)
	peak()
	valley(120) // long valley: plenty of recharge time
	peak()
	valley(5)
	res, err := Shave(mk(time.Minute, vals...), 1000, TypicalUPS(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered() {
		t.Fatalf("both short peaks must be covered after recharge: %+v", res)
	}
	// Recharge draw must never push the trace over budget.
	if res.Shaved.Peak() > 1000+1e-9 {
		t.Fatalf("recharge exceeded budget: %v", res.Shaved.Peak())
	}
}

func TestShaveChargeEfficiencyLoss(t *testing.T) {
	// With 50% efficiency, storing X Wh draws 2X Wh from headroom.
	bat := Battery{CapacityWh: 100, MaxDischargeW: 1000, MaxChargeW: 1000, Efficiency: 0.5}
	// Drain 50 Wh (1000 W over for 3 min = 50 Wh), then recharge for 1 hour.
	vals := []float64{2000, 2000, 2000}
	for i := 0; i < 60; i++ {
		vals = append(vals, 0)
	}
	res, err := Shave(mk(time.Minute, vals...), 1000, bat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered() {
		t.Fatalf("peak should be covered: %+v", res)
	}
	// The recharge power appears in the shaved trace: at 1000 W charge
	// limit the first recharge step draws 1000 W.
	if res.Shaved.Values[3] != 1000 {
		t.Fatalf("recharge draw = %v", res.Shaved.Values[3])
	}
}

func TestShaveErrors(t *testing.T) {
	tr := mk(time.Minute, 1, 2)
	if _, err := Shave(tr, 0, TypicalUPS(100, 5)); err == nil {
		t.Fatal("zero budget must error")
	}
	if _, err := Shave(timeseries.Series{}, 100, TypicalUPS(100, 5)); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := Shave(tr, 100, Battery{}); err == nil {
		t.Fatal("invalid battery must error")
	}
}

func TestPeakDuration(t *testing.T) {
	tr := mk(time.Minute, 1, 5, 5, 1, 5, 5, 5, 1)
	if got := PeakDuration(tr, 4); got != 3*time.Minute {
		t.Fatalf("PeakDuration = %v", got)
	}
	if got := PeakDuration(tr, 10); got != 0 {
		t.Fatalf("no peak: %v", got)
	}
}

// TestFragmentationDepletesHotNodes reproduces the §6 argument: under an
// oblivious placement, synchronous nodes deplete their batteries while
// other nodes never touch theirs; the workload-aware placement needs far
// less battery support for the same under-provisioned budget.
func TestFragmentationDepletesHotNodes(t *testing.T) {
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 16, "dbA": 16, "hadoop": 16},
		Start: t0, Step: 10 * time.Minute, Weeks: 1,
		PhaseJitterHours: 1.5, AmplitudeSigma: 0.2, NoiseSigma: 0.01, Seed: 6,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	build := func() *powertree.Node {
		tree, err := powertree.Build(powertree.TopologySpec{
			Name: "esd", SuitesPerDC: 1, MSBsPerSuite: 2, SBsPerMSB: 1, RPPsPerSB: 3,
			LeafBudget: 8 * 310,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	traces := placement.TraceFn(fleet.PowerFn())

	oblivious := build()
	if err := (placement.Oblivious{}).Place(oblivious, instances, traces); err != nil {
		t.Fatal(err)
	}
	smart := build()
	if err := (placement.WorkloadAware{TopServices: 3, Seed: 1}).Place(smart, instances, traces); err != nil {
		t.Fatal(err)
	}

	pf := powertree.PowerFn(fleet.PowerFn())
	obAggs, err := oblivious.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	smAggs, err := smart.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	// Under-provision to 80% of budget with 10 minutes of autonomy.
	obRep, err := EvaluateTree(obAggs, powertree.RPP, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	smRep, err := EvaluateTree(smAggs, powertree.RPP, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if obRep.TotalOverWh <= smRep.TotalOverWh {
		t.Fatalf("fragmented placement should have more over-budget energy: %v vs %v",
			obRep.TotalOverWh, smRep.TotalOverWh)
	}
	if obRep.CoverageFraction() >= 0.99 && obRep.TotalOverWh > 0 {
		t.Fatalf("minutes-scale batteries should not cover diurnal peaks under fragmentation: %+v",
			obRep.CoverageFraction())
	}
}

func TestEvaluateTreeErrors(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "e", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	pf := powertree.PowerFn(func(string) (timeseries.Series, bool) { return timeseries.Series{}, false })
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateTree(aggs, powertree.RPP, 10, 0); err == nil {
		t.Fatal("bad budget fraction must error")
	}
	// Empty tree: zero results, full coverage by definition.
	rep, err := EvaluateTree(aggs, powertree.RPP, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoverageFraction() != 1 || len(rep.Results) != 0 {
		t.Fatalf("empty tree: %+v", rep)
	}
}
