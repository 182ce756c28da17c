// Package metrics implements the paper's power-utilization metrics (§2.2):
// power slack (Eq. 1; Eq. 2's energy slack is that series' Energy), sum of
// peaks, per-level peak reduction, and the report structures the evaluation
// section's figures are generated from.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// ErrBudget is returned for non-positive budgets.
var ErrBudget = errors.New("metrics: budget must be positive")

// PowerSlack returns the slack series P_budget − P_instant,t (Eq. 1).
// Negative values mean the budget was exceeded at that instant.
func PowerSlack(power timeseries.Series, budget float64) (timeseries.Series, error) {
	if budget <= 0 {
		return timeseries.Series{}, ErrBudget
	}
	if power.Empty() {
		return timeseries.Series{}, timeseries.ErrEmpty
	}
	out := power.Clone()
	for i, v := range power.Values {
		out.Values[i] = budget - v
	}
	return out, nil
}

// AverageSlack returns the time-average of the power slack.
func AverageSlack(power timeseries.Series, budget float64) (float64, error) {
	slack, err := PowerSlack(power, budget)
	if err != nil {
		return 0, err
	}
	return slack.MeanValue(), nil
}

// OffPeakSlack returns the average power slack restricted to off-peak
// readings: those where the draw is below the given fraction of its peak.
// Fig. 14 reports slack reduction separately for off-peak hours because
// that is where reshaping converts idle budget into batch work.
func OffPeakSlack(power timeseries.Series, budget, peakFraction float64) (float64, error) {
	if budget <= 0 {
		return 0, ErrBudget
	}
	if power.Empty() {
		return 0, timeseries.ErrEmpty
	}
	threshold := power.Peak() * peakFraction
	var total float64
	var n int
	for _, v := range power.Values {
		if v < threshold {
			total += budget - v
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: no off-peak readings below %.3g", threshold)
	}
	return total / float64(n), nil
}

// Reduction returns the relative reduction (before−after)/before, guarding
// against a zero baseline.
func Reduction(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (before - after) / before
}

// LevelPeakReport compares the sum of node peaks at one level between two
// placements of the same fleet (Fig. 10's bars).
type LevelPeakReport struct {
	Level powertree.Level
	// Before and After are the sums of node peak powers.
	Before, After float64
	// ReductionPct is 100 × (Before−After)/Before.
	ReductionPct float64
}

// PeakReduction computes the per-level peak reduction between the
// aggregations of a baseline tree and an optimized tree hosting the same
// instances, both over the same traces (typically the held-out test week).
// One aggregation per tree serves all five levels.
func PeakReduction(before, after *powertree.Aggregates) []LevelPeakReport {
	out := make([]LevelPeakReport, 0, len(powertree.Levels))
	for _, level := range powertree.Levels {
		b := before.SumOfPeaks(level)
		a := after.SumOfPeaks(level)
		out = append(out, LevelPeakReport{Level: level, Before: b, After: a, ReductionPct: 100 * Reduction(b, a)})
	}
	return out
}

// ExtraServers estimates how many additional servers of the given peak draw
// fit into the headroom unlocked at the most constrained leaf nodes of an
// aggregated tree: for each leaf, floor(headroom/serverPeak), summed.
// Leaves already over budget contribute zero.
func ExtraServers(aggs *powertree.Aggregates, serverPeak float64) (int, error) {
	if serverPeak <= 0 {
		return 0, fmt.Errorf("metrics: server peak must be positive")
	}
	total := 0
	for _, leaf := range aggs.Leaves() {
		if h := aggs.Headroom(leaf); h > 0 {
			total += int(math.Floor(h / serverPeak))
		}
	}
	return total, nil
}
