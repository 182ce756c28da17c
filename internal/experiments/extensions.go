package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/capping"
	"repro/internal/detmap"
	"repro/internal/esd"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// ESDComparison quantifies the related-work argument of §1/§6: distributed
// UPS peak shaving cannot stand in for defragmentation because production
// peaks last hours, not the minutes a battery covers — and fragmented
// placements deplete exactly the batteries that matter.
type ESDComparison struct {
	DC workload.DCName
	// BudgetMultiplier scales the ideal per-leaf budget share (fleet peak /
	// leaf count); values near 1 are tight budgets a perfect placement just
	// fits.
	BudgetMultiplier float64
	// AutonomyMinutes is the UPS sizing.
	AutonomyMinutes float64
	// LongestPeak is the longest over-budget episode under the oblivious
	// placement — the duration a battery would need to cover.
	LongestPeak time.Duration
	// ObliviousCoverage is the fraction of over-budget energy the batteries
	// absorb on the oblivious placement.
	ObliviousCoverage float64
	// ObliviousUncovered counts breaker-risk steps left on the oblivious
	// placement even with batteries.
	ObliviousUncovered int
	// SmoothOpOverWh is the over-budget energy remaining after
	// workload-aware placement with no batteries at all.
	SmoothOpOverWh float64
	// ObliviousOverWh is the over-budget energy of the oblivious placement
	// before shaving.
	ObliviousOverWh float64
}

// ExtensionESD runs the comparison on one datacenter.
func ExtensionESD(name workload.DCName, opt Options, autonomyMinutes, budgetMultiplier float64) (*ESDComparison, error) {
	opt = opt.withDefaults()
	if autonomyMinutes <= 0 {
		autonomyMinutes = 10
	}
	if budgetMultiplier <= 0 {
		budgetMultiplier = 1.05
	}
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	res, err := optimize(run, opt, nil)
	if err != nil {
		return nil, err
	}
	oblivious, smart := res.BaselineTree, res.OptimizedTree

	// Tight per-leaf budgets: the ideal smooth share of the fleet peak.
	obAggs := res.BaselineAggs
	if err := setIdealBudgets(oblivious, obAggs, budgetMultiplier); err != nil {
		return nil, err
	}
	if err := setIdealBudgets(smart, res.OptimizedAggs, budgetMultiplier); err != nil {
		return nil, err
	}

	obRep, err := esd.EvaluateTree(obAggs, powertree.RPP, autonomyMinutes, 1)
	if err != nil {
		return nil, err
	}
	cmp := &ESDComparison{
		DC:                name,
		BudgetMultiplier:  budgetMultiplier,
		AutonomyMinutes:   autonomyMinutes,
		ObliviousCoverage: obRep.CoverageFraction(),
		ObliviousOverWh:   obRep.TotalOverWh,
	}
	for _, r := range obRep.Results {
		cmp.ObliviousUncovered += r.UncoveredSteps
	}
	// Longest peak on the oblivious placement, against the budgets just set.
	for _, nd := range obAggs.NodesAtLevel(powertree.RPP) {
		agg, _ := obAggs.Trace(nd)
		if d := esd.PeakDuration(agg, nd.Budget); d > cmp.LongestPeak {
			cmp.LongestPeak = d
		}
	}
	// SmoothOperator with no batteries: remaining over-budget energy.
	smRep, err := esd.EvaluateTree(res.OptimizedAggs, powertree.RPP, 0.0001, 1)
	if err != nil {
		return nil, err
	}
	cmp.SmoothOpOverWh = smRep.TotalOverWh
	return cmp, nil
}

// setIdealBudgets rebudgets a placed tree so every leaf gets the same
// multiplier × (fleet peak / leaf count) share and every ancestor the sum
// of its descendants — the tightest budget a perfectly smooth placement
// would fit under. aggs is the tree's aggregation, which budgets do not
// change.
func setIdealBudgets(tree *powertree.Node, aggs *powertree.Aggregates, multiplier float64) error {
	rootPeak := aggs.Peak(tree)
	if len(tree.Leaves()) == 0 || rootPeak <= 0 {
		return fmt.Errorf("experiments: cannot rebudget empty tree")
	}
	tightenBudgets(tree, multiplier*rootPeak)
	return nil
}

// FormatESD renders the comparison.
func FormatESD(c *ESDComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — distributed UPS vs workload-aware placement (%s, ideal-share budgets ×%.2f)\n", c.DC, c.BudgetMultiplier)
	fmt.Fprintf(&b, "  longest over-budget episode (oblivious):   %s\n", c.LongestPeak)
	fmt.Fprintf(&b, "  UPS autonomy:                               %.0f minutes\n", c.AutonomyMinutes)
	fmt.Fprintf(&b, "  oblivious + UPS: coverage %.1f%%, %d breaker-risk steps left\n",
		100*c.ObliviousCoverage, c.ObliviousUncovered)
	fmt.Fprintf(&b, "  over-budget energy: oblivious %.0f Wh → SmoothOperator (no UPS) %.0f Wh\n",
		c.ObliviousOverWh, c.SmoothOpOverWh)
	return b.String()
}

// CappingStudy measures how often the emergency capping runtime has to act
// under each placement when budgets are tightened — SmoothOperator's safety
// claim in §3.2: spreading synchronous instances lowers "the likelihood of
// tripping the circuit breakers".
type CappingStudy struct {
	DC workload.DCName
	// BudgetMultiplier scales the ideal per-leaf budget share.
	BudgetMultiplier float64
	// ObliviousThrottles and SmartThrottles count shed directives over the
	// test week.
	ObliviousThrottles, SmartThrottles int
	// ObliviousLCShedW and SmartLCShedW total the power shed from
	// latency-critical instances (the shedding of last resort).
	ObliviousLCShedW, SmartLCShedW float64
}

// ExtensionCapping runs the capping frequency comparison.
func ExtensionCapping(name workload.DCName, opt Options, budgetMultiplier float64) (*CappingStudy, error) {
	opt = opt.withDefaults()
	if budgetMultiplier <= 0 {
		budgetMultiplier = 1.05
	}
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	res, err := optimize(run, opt, nil)
	if err != nil {
		return nil, err
	}
	test := res.TestTraces
	study := &CappingStudy{DC: name, BudgetMultiplier: budgetMultiplier}
	eval := func(tree *powertree.Node, aggs *powertree.Aggregates) (int, float64, error) {
		// Tighten budgets to the ideal smooth share.
		if err := setIdealBudgets(tree, aggs, budgetMultiplier); err != nil {
			return 0, 0, err
		}
		ctrl, err := capping.New(tree, capping.Config{SustainSteps: 2})
		if err != nil {
			return 0, 0, err
		}
		steps := 0
		if _, tr, ok := detmap.First(test); ok {
			steps = tr.Len()
		}
		throttleCount, lcShed := 0, 0.0
		for step := 0; step < steps; step++ {
			read := func(id string) (capping.InstanceState, bool) {
				tr, ok := test[id]
				if !ok {
					return capping.InstanceState{}, false
				}
				inst, _ := run.Fleet.Instance(id)
				prio := capping.PriorityBackend
				switch inst.Class {
				case workload.LatencyCritical:
					prio = capping.PriorityLC
				case workload.Batch, workload.Dev, workload.Storage:
					prio = capping.PriorityBatch
				}
				p := tr.Values[step]
				return capping.InstanceState{Power: p, MinPower: p * 0.45, Priority: prio}, true
			}
			throttles, _, err := ctrl.Step(read)
			if err != nil {
				return 0, 0, err
			}
			throttleCount += len(throttles)
			for _, t := range throttles {
				if t.Priority == capping.PriorityLC {
					lcShed += t.Shed
				}
			}
		}
		return throttleCount, lcShed, nil
	}

	study.ObliviousThrottles, study.ObliviousLCShedW, err = eval(res.BaselineTree, res.BaselineAggs)
	if err != nil {
		return nil, err
	}
	study.SmartThrottles, study.SmartLCShedW, err = eval(res.OptimizedTree, res.OptimizedAggs)
	if err != nil {
		return nil, err
	}
	return study, nil
}

// FormatCapping renders the study.
func FormatCapping(c *CappingStudy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — emergency capping frequency (%s, ideal-share budgets ×%.2f)\n", c.DC, c.BudgetMultiplier)
	fmt.Fprintf(&b, "  oblivious:       %6d throttles, %8.0f W shed from LC\n", c.ObliviousThrottles, c.ObliviousLCShedW)
	fmt.Fprintf(&b, "  workload-aware:  %6d throttles, %8.0f W shed from LC\n", c.SmartThrottles, c.SmartLCShedW)
	return b.String()
}
