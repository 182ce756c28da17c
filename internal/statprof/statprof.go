// Package statprof implements the statistical-profiling provisioning
// baseline SmoothOperator is compared against in Fig. 11 (Govindan et al.,
// "Statistical profiling-based techniques for effective power provisioning
// in data centers", EuroSys 2009, as summarised in §5.2.1 of the paper).
//
// The baseline models each instance's power as a CDF and provisions a power
// node supplying instance set M at Σ_{i∈M} c_{i,u}, where c_{i,u} is the
// (100−u)-th percentile of instance i's power profile and u is the degree of
// under-provisioning. A degree of overbooking δ further divides the
// datacenter-level requirement by (1+δ).
//
// The SmoothOperator counterpart SmoOp(u, δ) provisions each node at the
// (100−u)-th percentile of the node's *aggregate* trace under the
// workload-aware placement, divided by (1+δ). SmoOp(0,0) is the plain
// peak-of-aggregate requirement.
package statprof

import (
	"errors"
	"fmt"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// Config is one (u, δ) provisioning configuration.
type Config struct {
	// UnderProvision is u: node budgets use the (100−u)-th percentile.
	UnderProvision float64
	// Overbook is δ: requirements are divided by (1+δ).
	Overbook float64
}

// String renders the configuration the way the paper labels it, e.g. "(10, 0.1)".
func (c Config) String() string { return fmt.Sprintf("(%g, %g)", c.UnderProvision, c.Overbook) }

// PaperConfigs are the four configurations of Fig. 11.
var PaperConfigs = []Config{
	{0, 0},
	{1, 0.01},
	{5, 0.05},
	{10, 0.1},
}

// Errors returned by provisioning computations.
var (
	ErrBadConfig = errors.New("statprof: u must be in [0,100) and δ ≥ 0")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.UnderProvision < 0 || c.UnderProvision >= 100 || c.Overbook < 0 {
		return ErrBadConfig
	}
	return nil
}

// RequiredBudget is a per-level provisioning requirement.
type RequiredBudget struct {
	// Level is the power tree tier.
	Level powertree.Level
	// Budget is the total power budget the level's nodes must be provisioned
	// with to supply the placed instances under the policy.
	Budget float64
}

// StatProf computes the baseline's required budget at every level: each
// node needs Σ over hosted instances of the instance's (100−u)-th power
// percentile, divided by (1+δ). Instances are read from the tree's
// placement; traces supply the power profiles.
func StatProf(tree *powertree.Node, traces powertree.PowerFn, cfg Config) ([]RequiredBudget, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Pre-compute per-instance percentiles once, sharing one kernel buffer
	// across the whole (serial) walk.
	var calc timeseries.PercentileCalc
	perc := make(map[string]float64)
	var err error
	tree.Walk(func(n *powertree.Node) {
		if err != nil {
			return
		}
		for _, id := range n.Instances {
			if _, ok := perc[id]; ok {
				continue
			}
			tr, ok := traces(id)
			if !ok {
				err = fmt.Errorf("statprof: missing trace for instance %q", id)
				return
			}
			perc[id] = calc.Percentile(tr, 100-cfg.UnderProvision)
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]RequiredBudget, 0, len(powertree.Levels))
	for _, level := range powertree.Levels {
		var total float64
		for _, n := range tree.NodesAtLevel(level) {
			for _, id := range n.AllInstances() {
				total += perc[id]
			}
		}
		out = append(out, RequiredBudget{Level: level, Budget: total / (1 + cfg.Overbook)})
	}
	return out, nil
}

// SmoothOperator computes SmoOp(u, δ)'s required budget at every level of
// an aggregated tree: each node needs the (100−u)-th percentile of its
// aggregate power trace, divided by (1+δ). With u=δ=0 this is the
// peak-of-aggregate requirement that workload-aware placement minimises.
// The per-level loops only take percentiles, sharing one kernel buffer and
// the snapshot's cached level walks.
func SmoothOperator(aggs *powertree.Aggregates, cfg Config) ([]RequiredBudget, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var calc timeseries.PercentileCalc
	out := make([]RequiredBudget, 0, len(powertree.Levels))
	for _, level := range powertree.Levels {
		var total float64
		for _, n := range aggs.NodesAtLevel(level) {
			agg, ok := aggs.Trace(n)
			if !ok || agg.Empty() {
				continue
			}
			total += calc.Percentile(agg, 100-cfg.UnderProvision)
		}
		out = append(out, RequiredBudget{Level: level, Budget: total / (1 + cfg.Overbook)})
	}
	return out, nil
}
