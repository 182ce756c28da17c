package repro_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// TestWholePaperShapes runs the complete three-datacenter pipeline once and
// asserts, in one place, every qualitative claim this reproduction stands
// on. It is the repository's single-command answer to "does the paper still
// hold?".
func TestWholePaperShapes(t *testing.T) {
	opt := experiments.Options{Scale: 1, Step: time.Hour, Seed: 1, TopServices: 8}
	runs, err := experiments.RunSome(workload.AllDCs, opt)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[workload.DCName]*experiments.DCRun{}
	for _, r := range runs {
		byName[r.Name] = r
	}

	// §5.2.1 / Fig. 10 — the placement claims.
	t.Run("placement", func(t *testing.T) {
		var prev float64 = -1
		for _, name := range workload.AllDCs {
			r := byName[name]
			if r.Placement.RPPReductionPct <= 0 {
				t.Errorf("%s: no leaf-level peak reduction", name)
			}
			if r.Placement.RPPReductionPct < prev {
				t.Errorf("cross-DC ordering broken at %s", name)
			}
			prev = r.Placement.RPPReductionPct
			for _, rep := range r.Placement.PeakReports {
				if rep.Level == powertree.DC && (rep.ReductionPct > 1e-6 || rep.ReductionPct < -1e-6) {
					t.Errorf("%s: placement changed the DC total", name)
				}
			}
		}
	})

	// Fig. 11 — beats statistical profiling without probabilities.
	t.Run("provisioning", func(t *testing.T) {
		rows, err := experiments.Fig11(runs)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if row.SmoOpNorm > row.StatProfNorm+1e-9 {
				t.Errorf("SmoOp%v above StatProf%v at %s/%s", row.Config, row.Config, row.DC, row.Level)
			}
		}
	})

	// §5.2.2 / Fig. 12–13 — reshaping claims.
	t.Run("reshaping", func(t *testing.T) {
		for _, name := range workload.AllDCs {
			r := byName[name].Reshape
			if r.ConvImp.LCPct <= 0 || r.ConvImp.BatchPct <= 0 {
				t.Errorf("%s: conversion gains %+v", name, r.ConvImp)
			}
			if r.TBImp.LCPct < r.ConvImp.LCPct {
				t.Errorf("%s: throttle/boost did not add LC capacity", name)
			}
			if r.Conversion.QoSViolations != 0 || r.ThrottleBoost.QoSViolations != 0 {
				t.Errorf("%s: reshaping violated QoS", name)
			}
			if r.Conversion.OverBudgetSteps != 0 || r.ThrottleBoost.OverBudgetSteps != 0 {
				t.Errorf("%s: reshaping exceeded the power budget", name)
			}
		}
	})

	// Fig. 14 — slack reduction, DC3 trailing.
	t.Run("slack", func(t *testing.T) {
		for _, name := range workload.AllDCs {
			if byName[name].Reshape.AvgSlackReductionPct <= 0 {
				t.Errorf("%s: no slack reduction", name)
			}
		}
		if byName[workload.DC3].Reshape.AvgSlackReductionPct >
			byName[workload.DC2].Reshape.AvgSlackReductionPct {
			t.Error("DC3 (LC-heavy) should not lead the slack reductions")
		}
	})
}
