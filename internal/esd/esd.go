// Package esd implements the distributed-UPS / energy-storage-device
// peak-shaving baseline (Kontorinis et al., ISCA 2012 — the paper's [28]).
//
// The related-work discussion (§1, §6) argues that battery-based approaches
// "due to the battery capacity can only handle peaks that span at most tens
// of minutes, making it unsuitable for Facebook type of workloads whose
// peak may last for hours", and that fragmented placements deplete the
// batteries at hot nodes while cold nodes never use theirs. This package
// makes that argument quantitative: a per-node battery model with capacity,
// power limits and efficiency, a peak-shaving policy, and an evaluator that
// reports how much of a node's over-budget energy the battery could absorb
// and where it ran dry.
package esd

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// Battery models one node's UPS pack.
type Battery struct {
	// CapacityWh is the usable energy.
	CapacityWh float64
	// MaxDischargeW and MaxChargeW bound instantaneous power.
	MaxDischargeW, MaxChargeW float64
	// Efficiency is the round-trip efficiency in (0, 1]; losses are applied
	// on charge.
	Efficiency float64
}

// Validate checks the battery parameters.
func (b Battery) Validate() error {
	if b.CapacityWh <= 0 || b.MaxDischargeW <= 0 || b.MaxChargeW <= 0 {
		return errors.New("esd: capacity and power limits must be positive")
	}
	if b.Efficiency <= 0 || b.Efficiency > 1 {
		return errors.New("esd: efficiency must be in (0,1]")
	}
	return nil
}

// TypicalUPS sizes a battery the way distributed-UPS deployments do: a few
// minutes of full-node draw. minutes is the autonomy at the given full
// power.
func TypicalUPS(fullPowerW float64, minutes float64) Battery {
	return Battery{
		CapacityWh:    fullPowerW * minutes / 60,
		MaxDischargeW: fullPowerW,
		MaxChargeW:    fullPowerW * 0.25,
		Efficiency:    0.9,
	}
}

// ShaveResult reports one node's peak-shaving outcome over a trace window.
type ShaveResult struct {
	// OverEnergyWh is the total energy above budget in the raw trace.
	OverEnergyWh float64
	// AbsorbedWh is the over-budget energy the battery supplied.
	AbsorbedWh float64
	// UncoveredSteps counts steps where draw stayed over budget because the
	// battery was empty or power-limited — each is a breaker-trip risk.
	UncoveredSteps int
	// MinChargeWh is the lowest state of charge reached.
	MinChargeWh float64
	// Shaved is the post-shaving power trace.
	Shaved timeseries.Series
}

// Covered reports whether the battery kept the node within budget at every
// step.
func (r ShaveResult) Covered() bool { return r.UncoveredSteps == 0 }

// Shave simulates peak shaving of one power trace against a budget: the
// battery discharges whenever draw exceeds the budget (up to its power and
// charge limits) and recharges from headroom when draw is below budget.
// The battery starts full.
func Shave(trace timeseries.Series, budget float64, bat Battery) (ShaveResult, error) {
	if err := bat.Validate(); err != nil {
		return ShaveResult{}, err
	}
	if err := trace.Validate(); err != nil {
		return ShaveResult{}, err
	}
	if budget <= 0 {
		return ShaveResult{}, errors.New("esd: budget must be positive")
	}
	stepHours := trace.Step.Hours()
	charge := bat.CapacityWh
	res := ShaveResult{MinChargeWh: charge, Shaved: trace.Clone()}
	for i, p := range trace.Values {
		switch {
		case p > budget:
			over := p - budget
			res.OverEnergyWh += over * stepHours
			discharge := over
			if discharge > bat.MaxDischargeW {
				discharge = bat.MaxDischargeW
			}
			if need := discharge * stepHours; need > charge {
				discharge = charge / stepHours
			}
			charge -= discharge * stepHours
			res.AbsorbedWh += discharge * stepHours
			res.Shaved.Values[i] = p - discharge
			if res.Shaved.Values[i] > budget+1e-9 {
				res.UncoveredSteps++
			}
		case p < budget && charge < bat.CapacityWh:
			headroom := budget - p
			chargeP := headroom
			if chargeP > bat.MaxChargeW {
				chargeP = bat.MaxChargeW
			}
			stored := chargeP * stepHours * bat.Efficiency
			if charge+stored > bat.CapacityWh {
				stored = bat.CapacityWh - charge
				chargeP = stored / (stepHours * bat.Efficiency)
			}
			charge += stored
			res.Shaved.Values[i] = p + chargeP
		}
		if charge < res.MinChargeWh {
			res.MinChargeWh = charge
		}
	}
	return res, nil
}

// TreeReport evaluates per-node peak shaving across a whole placed power
// tree at one level: every node gets a battery sized for autonomyMinutes of
// its budget, and shaves its aggregate trace against that budget.
type TreeReport struct {
	// Results holds one ShaveResult per node with instances, in tree order.
	Results []ShaveResult
	// TotalOverWh and TotalAbsorbedWh aggregate over nodes.
	TotalOverWh, TotalAbsorbedWh float64
}

// CoverageFraction is absorbed/over energy (1 when there was nothing to
// absorb).
func (r TreeReport) CoverageFraction() float64 {
	if r.TotalOverWh == 0 {
		return 1
	}
	return r.TotalAbsorbedWh / r.TotalOverWh
}

// EvaluateTree shaves every node at the given level of a placed tree,
// reading each node's aggregate trace from the tree's aggregation aggs and
// its budget from the node. budgetFraction scales node budgets into shaving
// thresholds — evaluating against (say) 0.9 of the budget measures how
// batteries would support under-provisioning, which is how [28] banks its
// savings.
func EvaluateTree(aggs *powertree.Aggregates, level powertree.Level, autonomyMinutes, budgetFraction float64) (TreeReport, error) {
	if budgetFraction <= 0 || budgetFraction > 1 {
		return TreeReport{}, errors.New("esd: budgetFraction must be in (0,1]")
	}
	var rep TreeReport
	for _, nd := range aggs.NodesAtLevel(level) {
		agg, _ := aggs.Trace(nd)
		if agg.Empty() {
			continue
		}
		budget := nd.Budget * budgetFraction
		res, err := Shave(agg, budget, TypicalUPS(budget, autonomyMinutes))
		if err != nil {
			return TreeReport{}, fmt.Errorf("esd: node %q: %w", nd.Name, err)
		}
		rep.Results = append(rep.Results, res)
		rep.TotalOverWh += res.OverEnergyWh
		rep.TotalAbsorbedWh += res.AbsorbedWh
	}
	return rep, nil
}

// PeakDuration returns the longest over-budget episode in a trace — the
// quantity that decides whether a battery of a given autonomy can help.
func PeakDuration(trace timeseries.Series, budget float64) time.Duration {
	longest, cur := 0, 0
	for _, v := range trace.Values {
		if v > budget {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	return time.Duration(longest) * trace.Step
}
