package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func mk(vals ...float64) timeseries.Series { return timeseries.New(t0, time.Minute, vals) }

func TestPowerSlack(t *testing.T) {
	s, err := PowerSlack(mk(30, 70, 110), 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{70, 30, -10}
	for i, v := range s.Values {
		if v != want[i] {
			t.Fatalf("slack = %v", s.Values)
		}
	}
	if _, err := PowerSlack(mk(1), 0); err != ErrBudget {
		t.Fatalf("zero budget: %v", err)
	}
	if _, err := PowerSlack(timeseries.Series{}, 10); err == nil {
		t.Fatal("empty series must error")
	}
}

func TestEnergyAndAverageSlack(t *testing.T) {
	// 60 minutes at 40W slack = 40 value-hours.
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 60
	}
	s := timeseries.New(t0, time.Minute, vals)
	slack, err := PowerSlack(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if es := slack.Total() * slack.Step.Hours(); math.Abs(es-40) > 1e-9 {
		t.Fatalf("energy slack = %v", es)
	}
	avg, err := AverageSlack(s, 100)
	if err != nil || math.Abs(avg-40) > 1e-9 {
		t.Fatalf("avg slack = %v, %v", avg, err)
	}
}

func TestOffPeakSlack(t *testing.T) {
	// Peak 100; off-peak threshold 0.8 → readings <80 count.
	s := mk(100, 90, 50, 30)
	off, err := OffPeakSlack(s, 120, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Off-peak readings 50 and 30: slacks 70 and 90 → mean 80.
	if math.Abs(off-80) > 1e-9 {
		t.Fatalf("off-peak slack = %v", off)
	}
	flat := mk(100, 100)
	if _, err := OffPeakSlack(flat, 120, 0.8); err == nil {
		t.Fatal("flat trace has no off-peak readings")
	}
	if _, err := OffPeakSlack(s, 0, 0.8); err != ErrBudget {
		t.Fatalf("zero budget: %v", err)
	}
}

func TestReduction(t *testing.T) {
	if Reduction(100, 87) != 0.13 {
		t.Fatalf("Reduction = %v", Reduction(100, 87))
	}
	if Reduction(0, 5) != 0 {
		t.Fatal("zero baseline must yield 0")
	}
}

// Property: slack + power = budget pointwise; energy slack = budget·T − energy.
func TestSlackConservationProperty(t *testing.T) {
	f := func(raw [10]float64) bool {
		s := timeseries.Zeros(t0, time.Minute, 10)
		for i := range s.Values {
			s.Values[i] = math.Abs(math.Mod(raw[i], 200))
		}
		const budget = 250.0
		slack, err := PowerSlack(s, budget)
		if err != nil {
			return false
		}
		for i := range s.Values {
			if math.Abs(slack.Values[i]+s.Values[i]-budget) > 1e-9 {
				return false
			}
		}
		es := slack.Total() * slack.Step.Hours()
		wantES := budget*s.Step.Hours()*float64(s.Len()) - s.Total()*s.Step.Hours()
		return math.Abs(es-wantES) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func buildPlaced(t *testing.T, placer placement.Placer) (*powertree.Node, powertree.PowerFn) {
	t.Helper()
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 12, "dbA": 12, "hadoop": 12},
		Start: t0, Step: time.Hour, Weeks: 1,
		PhaseJitterHours: 1.5, AmplitudeSigma: 0.2, NoiseSigma: 0.01, Seed: 4,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "m", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 3, LeafBudget: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	if err := placer.Place(tree, instances, placement.TraceFn(fleet.PowerFn())); err != nil {
		t.Fatal(err)
	}
	return tree, powertree.PowerFn(fleet.PowerFn())
}

// aggregate is the tree's aggregation over pf, the ledger the reports read.
func aggregate(t *testing.T, tree *powertree.Node, pf powertree.PowerFn) *powertree.Aggregates {
	t.Helper()
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

func TestPeakReductionReport(t *testing.T) {
	before, pf := buildPlaced(t, placement.Oblivious{})
	after, _ := buildPlaced(t, placement.WorkloadAware{TopServices: 3, Seed: 1})
	reports := PeakReduction(aggregate(t, before, pf), aggregate(t, after, pf))
	if len(reports) != len(powertree.Levels) {
		t.Fatalf("levels = %d", len(reports))
	}
	var rpp LevelPeakReport
	for _, r := range reports {
		if r.Level == powertree.RPP {
			rpp = r
		}
		if r.Level == powertree.DC && math.Abs(r.ReductionPct) > 1e-6 {
			t.Fatalf("DC-level reduction must be 0 (placement-invariant): %+v", r)
		}
	}
	if rpp.ReductionPct <= 0 {
		t.Fatalf("RPP peak reduction should be positive: %+v", rpp)
	}
}

func TestExtraServers(t *testing.T) {
	tree, pf := buildPlaced(t, placement.WorkloadAware{TopServices: 3, Seed: 1})
	aggs := aggregate(t, tree, pf)
	n, err := ExtraServers(aggs, 310)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("extra servers = %d, want positive on an under-committed tree", n)
	}
	if _, err := ExtraServers(aggs, 0); err == nil {
		t.Fatal("zero server peak must error")
	}
	// Defragmentation unlocks more servers than the oblivious placement.
	bad, pfBad := buildPlaced(t, placement.Oblivious{})
	nBad, err := ExtraServers(aggregate(t, bad, pfBad), 310)
	if err != nil {
		t.Fatal(err)
	}
	if n < nBad {
		t.Fatalf("workload-aware placement should unlock at least as many servers: %d vs %d", n, nBad)
	}
}
