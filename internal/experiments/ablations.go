package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// AblationRow is one design-choice variant and the leaf-level peak
// reduction it achieves on the held-out week.
type AblationRow struct {
	// Variant names the design choice under test.
	Variant string
	// RPPReductionPct is the leaf-level peak reduction vs. the DC's
	// oblivious baseline.
	RPPReductionPct float64
}

// variant is one ablation row. tweak adjusts the paper's framework config
// and runs Optimize under it; a variant without one reads the paper's own
// Optimize result. place, when set, builds a placement core.Config cannot
// express, scored against that result's baseline.
type variant struct {
	label string
	tweak func(*core.Config)
	place func(run *DCRun, res *core.PlacementResult) (*powertree.Node, error)
}

// runVariants evaluates ablation variants side by side on one fleet, in
// input order.
func runVariants(name workload.DCName, opt Options, variants []variant) ([]AblationRow, error) {
	opt = opt.withDefaults()
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	if slices.ContainsFunc(variants, func(v variant) bool { return v.tweak == nil }) {
		if run.Placement, err = optimize(run, opt, nil); err != nil {
			return nil, err
		}
	}
	return parallel.Map(context.Background(), len(variants), opt.Workers, func(i int) (AblationRow, error) {
		v := variants[i]
		res := run.Placement
		if v.tweak != nil {
			var err error
			if res, err = optimize(run, opt, v.tweak); err != nil {
				return AblationRow{}, err
			}
		}
		row := AblationRow{Variant: v.label, RPPReductionPct: res.RPPReductionPct}
		if v.place == nil {
			return row, nil
		}
		tree, err := v.place(run, res)
		if err != nil {
			return AblationRow{}, err
		}
		row.RPPReductionPct, err = reduction(res, tree)
		return row, err
	})
}

// reduction scores a tree placed outside Optimize against the result's
// baseline on its test week, by the rule Optimize applies.
func reduction(res *core.PlacementResult, tree *powertree.Node) (float64, error) {
	after, err := tree.SumOfPeaks(powertree.RPP, powertree.PowerFn(workload.SubPowerFn(res.TestTraces)))
	if err != nil {
		return 0, err
	}
	var before float64
	for _, r := range res.PeakReports {
		if r.Level == powertree.RPP {
			before = r.Before
		}
	}
	return 100 * metrics.Reduction(before, after), nil
}

// placedBy places the fleet on a fresh clone of its tree with p, trained on
// the averaged I-traces Optimize used.
func placedBy(p placement.WorkloadAware, opt Options) func(*DCRun, *core.PlacementResult) (*powertree.Node, error) {
	p.Workers = opt.Workers
	return func(run *DCRun, res *core.PlacementResult) (*powertree.Node, error) {
		tree := run.Tree.Clone()
		return tree, p.Place(tree, instances(run.Fleet), trainFn(res))
	}
}

// instances lists the fleet as placement input, in generation order.
func instances(fleet *workload.Fleet) []placement.Instance {
	out := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		out[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	return out
}

// trainFn looks up the averaged I-traces a placement result trained on.
func trainFn(res *core.PlacementResult) placement.TraceFn {
	return placement.TraceFn(workload.SubPowerFn(res.AveragedITraces))
}

// AblationEmbedding compares the paper's I-to-S embedding against the
// I-to-I pairwise embedding §3.4 argues against.
func AblationEmbedding(name workload.DCName, opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	return runVariants(name, opt, []variant{
		{label: "I-to-S (paper)"},
		{label: "I-to-I sample=32", place: placedBy(placement.WorkloadAware{Seed: opt.Seed, IToI: true, IToISample: 32}, opt)},
	})
}

// AblationClustering compares balanced k-means (paper) against plain
// k-means in the placement step.
func AblationClustering(name workload.DCName, opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	return runVariants(name, opt, []variant{
		{label: "balanced k-means (paper)"},
		{label: "plain k-means", place: placedBy(placement.WorkloadAware{TopServices: opt.TopServices, Seed: opt.Seed, PlainKMeans: true}, opt)},
	})
}

// AblationBasisSize sweeps |B|, the number of S-trace bases.
func AblationBasisSize(name workload.DCName, opt Options, sizes []int) ([]AblationRow, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 12}
	}
	variants := make([]variant, len(sizes))
	for i, b := range sizes {
		variants[i] = variant{label: fmt.Sprintf("|B|=%d", b), tweak: func(c *core.Config) { c.TopServices = b }}
	}
	return runVariants(name, opt, variants)
}

// AblationBasisScope compares per-subtree S-trace extraction (paper)
// against a single global basis.
func AblationBasisScope(name workload.DCName, opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	return runVariants(name, opt, []variant{
		{label: "per-subtree basis (paper)"},
		{label: "global basis", place: placedBy(placement.WorkloadAware{TopServices: opt.TopServices, Seed: opt.Seed, GlobalBasis: true}, opt)},
	})
}

// AblationTrainWeeks compares single-week training against the paper's
// multi-week averaged I-traces (the §3.3 overfitting guard).
func AblationTrainWeeks(name workload.DCName, opt Options) ([]AblationRow, error) {
	var variants []variant
	for _, weeks := range []int{1, 2} {
		variants = append(variants, variant{label: fmt.Sprintf("train=%dwk", weeks), tweak: func(c *core.Config) { c.TrainWeeks = weeks }})
	}
	return runVariants(name, opt, variants)
}

// AblationRemap measures how far swap-based remapping alone (on the
// oblivious placement) closes the gap to the full placement.
func AblationRemap(name workload.DCName, opt Options, maxSwaps int) ([]AblationRow, error) {
	if maxSwaps <= 0 {
		maxSwaps = 64
	}
	remapOnly := func(_ *DCRun, res *core.PlacementResult) (*powertree.Node, error) {
		tree := res.BaselineTree.Clone()
		_, err := placement.Remap(tree, trainFn(res), placement.RemapConfig{MaxSwaps: maxSwaps})
		return tree, err
	}
	return runVariants(name, opt, []variant{
		{label: fmt.Sprintf("remap-only (%d swaps)", maxSwaps), place: remapOnly},
		{label: "full placement (paper)"},
	})
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s RPP peak reduction %6.2f%%\n", r.Variant, r.RPPReductionPct)
	}
	return b.String()
}

// AblationForecast compares placing on the paper's averaged I-traces
// against placing on forecast traces (seasonal EWMA + trend) — the
// "proactive planning" knob. Both placements are evaluated on the held-out
// week.
func AblationForecast(name workload.DCName, opt Options) ([]AblationRow, error) {
	return runVariants(name, opt, []variant{
		{label: "averaged I-traces (paper)"},
		{label: "forecast traces", tweak: func(c *core.Config) { c.PlaceOnForecast = true }},
	})
}
