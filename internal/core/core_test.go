package core

import (
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testDC builds a fast, small synthetic datacenter (coarse step).
func testDC(t *testing.T, name workload.DCName) (*workload.Fleet, *powertree.Node, workload.DCConfig) {
	t.Helper()
	cfg, err := workload.StandardDCConfig(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gen.Step = time.Hour // keep tests fast
	fleet, tree, err := workload.BuildDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, tree, cfg
}

func TestOptimizeEndToEnd(t *testing.T) {
	fleet, tree, dcCfg := testDC(t, workload.DC3)
	fw := New(Config{TopServices: 8, Seed: 1, Baseline: placement.Oblivious{MixFraction: dcCfg.BaselineMix}})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Both placements complete.
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	if err := placement.Verify(pr.BaselineTree, instances); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if err := placement.Verify(pr.OptimizedTree, instances); err != nil {
		t.Fatalf("optimized: %v", err)
	}
	// The input tree stays untouched.
	if tree.InstanceCount() != 0 {
		t.Fatal("Optimize must not mutate the input tree")
	}
	// The headline claim on the high-heterogeneity DC: positive leaf-level
	// peak reduction, measured out-of-sample.
	if pr.RPPReductionPct <= 0 {
		t.Fatalf("RPP reduction = %v, want positive", pr.RPPReductionPct)
	}
	// DC-level peak is placement-invariant.
	for _, r := range pr.PeakReports {
		if r.Level == powertree.DC && (r.ReductionPct > 1e-6 || r.ReductionPct < -1e-6) {
			t.Fatalf("DC-level reduction must be 0: %+v", r)
		}
	}
	// Mean leaf asynchrony score improves.
	mean := func(m map[string]float64) float64 {
		var s float64
		for _, v := range m {
			s += v
		}
		return s / float64(len(m))
	}
	if mean(pr.OptimizedLeafScores) <= mean(pr.BaselineLeafScores) {
		t.Fatalf("mean leaf asynchrony did not improve: %v vs %v",
			mean(pr.OptimizedLeafScores), mean(pr.BaselineLeafScores))
	}
}

func TestOptimizeHeterogeneityOrdering(t *testing.T) {
	// Fig. 10's cross-DC shape: DC3 (high heterogeneity, LC-heavy, badly
	// packed baseline) gains more at the leaves than DC1.
	fleet1, tree1, cfg1 := testDC(t, workload.DC1)
	fw1 := New(Config{TopServices: 8, Seed: 1, Baseline: placement.Oblivious{MixFraction: cfg1.BaselineMix}})
	pr1, err := fw1.Optimize(fleet1, tree1)
	if err != nil {
		t.Fatal(err)
	}
	fleet3, tree3, cfg3 := testDC(t, workload.DC3)
	fw3 := New(Config{TopServices: 8, Seed: 1, Baseline: placement.Oblivious{MixFraction: cfg3.BaselineMix}})
	pr3, err := fw3.Optimize(fleet3, tree3)
	if err != nil {
		t.Fatal(err)
	}
	if pr3.RPPReductionPct <= pr1.RPPReductionPct {
		t.Fatalf("DC3 reduction %v should exceed DC1 %v", pr3.RPPReductionPct, pr1.RPPReductionPct)
	}
}

func TestOptimizeTooShort(t *testing.T) {
	cfg, err := workload.StandardDCConfig(workload.DC1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gen.Weeks = 2 // train=2 leaves no test week
	cfg.Gen.Step = time.Hour
	fleet, tree, err := workload.BuildDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}).Optimize(fleet, tree); err == nil {
		t.Fatal("2-week fleet must fail the 2+1 split")
	}
}

func TestReshapeEndToEnd(t *testing.T) {
	fleet, tree, dcCfg := testDC(t, workload.DC3)
	fw := New(Config{TopServices: 8, Seed: 1, Baseline: placement.Oblivious{MixFraction: dcCfg.BaselineMix}})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := fw.Reshape(fleet, pr)
	if err != nil {
		t.Fatal(err)
	}
	if rr.NConv <= 0 {
		t.Fatalf("no conversion servers sized from %.2f%% headroom", pr.RPPReductionPct)
	}
	if rr.Lconv <= 0 || rr.Lconv > 0.9 {
		t.Fatalf("Lconv = %v", rr.Lconv)
	}
	// Fig. 13 shape: conversion adds LC and Batch throughput over baseline;
	// static-LC adds only LC.
	if rr.ConvImp.LCPct <= 0 {
		t.Fatalf("conversion LC improvement = %+v", rr.ConvImp)
	}
	if rr.ConvImp.BatchPct <= rr.StaticImp.BatchPct {
		t.Fatalf("conversion batch %+v must beat static %+v", rr.ConvImp, rr.StaticImp)
	}
	// Throttle/boost lifts LC further.
	if rr.TBImp.LCPct < rr.ConvImp.LCPct {
		t.Fatalf("TB LC %+v below conversion %+v", rr.TBImp, rr.ConvImp)
	}
	// No strategy may violate safety.
	for name, r := range map[string]*struct{ over, qos int }{
		"baseline":   {rr.Baseline.OverBudgetSteps, rr.Baseline.QoSViolations},
		"conversion": {rr.Conversion.OverBudgetSteps, rr.Conversion.QoSViolations},
		"tb":         {rr.ThrottleBoost.OverBudgetSteps, rr.ThrottleBoost.QoSViolations},
	} {
		if r.over != 0 {
			t.Fatalf("%s over budget on %d steps", name, r.over)
		}
		if r.qos != 0 {
			t.Fatalf("%s violated QoS on %d steps", name, r.qos)
		}
	}
	// Fig. 14 shape: slack shrinks.
	if rr.AvgSlackReductionPct <= 0 {
		t.Fatalf("avg slack reduction = %v", rr.AvgSlackReductionPct)
	}
}

func TestReshapeNilPlacement(t *testing.T) {
	fleet, _, _ := testDC(t, workload.DC1)
	if _, err := New(Config{}).Reshape(fleet, nil); err == nil {
		t.Fatal("nil placement must error")
	}
}

func TestAdaptRemapsDriftedPlacement(t *testing.T) {
	fleet, tree, _ := testDC(t, workload.DC2)
	fw := New(Config{TopServices: 8, Seed: 1})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the baseline (fragmented) tree to the monitor: it must detect low
	// scores and remap.
	rep, err := fw.Adapt(pr.BaselineTree, pr.TestTraces, 1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstNode == "" || rep.WorstScore <= 0 {
		t.Fatalf("drift report: %+v", rep)
	}
	if len(rep.Swaps) == 0 {
		t.Fatal("fragmented tree should trigger swaps")
	}
	// A well-placed tree under the same floor should need few swaps.
	rep2, err := fw.Adapt(pr.OptimizedTree, pr.TestTraces, 1.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Swaps) >= len(rep.Swaps) {
		t.Logf("note: optimized tree swaps %d vs baseline %d", len(rep2.Swaps), len(rep.Swaps))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.topServices() != 10 || c.trainWeeks() != 2 || c.qosKnee() != 0.9 {
		t.Fatal("defaults broken")
	}
	if _, ok := c.baseline().(placement.Oblivious); !ok {
		t.Fatal("default baseline must be oblivious")
	}
	c2 := Config{TopServices: 5, TrainWeeks: 1, Baseline: placement.Random{}}
	if c2.topServices() != 5 || c2.trainWeeks() != 1 {
		t.Fatal("overrides broken")
	}
	if _, ok := c2.baseline().(placement.Random); !ok {
		t.Fatal("baseline override broken")
	}
}

func TestReshapeWithLatencyModel(t *testing.T) {
	fleet, tree, dcCfg := testDC(t, workload.DC3)
	latency := sim.LatencyModel{ServiceTimeMs: 2, SLAms: 92} // knee 0.9
	fw := New(Config{
		TopServices: 8, Seed: 1,
		Baseline: placement.Oblivious{MixFraction: dcCfg.BaselineMix},
		Latency:  latency,
	})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := fw.Reshape(fleet, pr)
	if err != nil {
		t.Fatal(err)
	}
	if rr.TBLatency == nil {
		t.Fatal("latency report missing")
	}
	baseLat, err := sim.Latency(rr.Baseline, latency)
	if err != nil {
		t.Fatal(err)
	}
	// The guarded threshold keeps both strategies within the SLA.
	if baseLat.SLAViolations != 0 || rr.TBLatency.SLAViolations != 0 {
		t.Fatalf("SLA violations: baseline %d, tb %d",
			baseLat.SLAViolations, rr.TBLatency.SLAViolations)
	}
	if rr.TBLatency.PeakP99Ms <= 0 || rr.TBLatency.MeanMs <= 2 {
		t.Fatalf("latency report: %+v", rr.TBLatency)
	}
}

func TestQoSKneeFromLatencySLA(t *testing.T) {
	c := Config{Latency: sim.LatencyModel{ServiceTimeMs: 2, SLAms: 92}}
	if got := c.qosKnee(); got < 0.89 || got > 0.91 {
		t.Fatalf("derived knee = %v, want ≈0.9", got)
	}
	// Impossible SLA falls back to the default knee.
	c3 := Config{Latency: sim.LatencyModel{ServiceTimeMs: 50, SLAms: 10}}
	if c3.qosKnee() != 0.9 {
		t.Fatalf("impossible SLA knee = %v", c3.qosKnee())
	}
}

func TestOptimizeOnForecast(t *testing.T) {
	fleet, tree, dcCfg := testDC(t, workload.DC3)
	fw := New(Config{
		TopServices: 8, Seed: 1,
		Baseline:        placement.Oblivious{MixFraction: dcCfg.BaselineMix},
		PlaceOnForecast: true,
	})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		t.Fatal(err)
	}
	if pr.RPPReductionPct <= 0 {
		t.Fatalf("forecast-driven placement did not defragment: %v", pr.RPPReductionPct)
	}
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	if err := placement.Verify(pr.OptimizedTree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	fleet, tree, dcCfg := testDC(t, workload.DC2)
	run := func() float64 {
		fw := New(Config{TopServices: 8, Seed: 7, Baseline: placement.Oblivious{MixFraction: dcCfg.BaselineMix}})
		pr, err := fw.Optimize(fleet, tree)
		if err != nil {
			t.Fatal(err)
		}
		return pr.RPPReductionPct
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed must reproduce the pipeline: %v vs %v", a, b)
	}
}

func TestReshapeLconvBinds(t *testing.T) {
	fleet, tree, dcCfg := testDC(t, workload.DC3)
	fw := New(Config{
		TopServices: 8, Seed: 1,
		Baseline: placement.Oblivious{MixFraction: dcCfg.BaselineMix},
	})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := fw.Reshape(fleet, pr)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Lconv <= 0 || rr.Lconv > 0.9 {
		t.Fatalf("learned Lconv %v outside (0, QoS knee 0.9]", rr.Lconv)
	}
	// The guarded threshold binds: per-server load stays at or below it.
	if peak := rr.ThrottleBoost.PerLCServerLoad.Peak(); peak > rr.Lconv+1e-6 {
		t.Fatalf("per-server load %v above learned Lconv %v", peak, rr.Lconv)
	}
}
