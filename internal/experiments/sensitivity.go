package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/powerrouting"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// SensitivityRow is one point of a parameter sweep.
type SensitivityRow struct {
	// Param is the swept value (meaning depends on the sweep).
	Param float64
	// RPPReductionPct is the leaf-level peak reduction at that value.
	RPPReductionPct float64
}

// sweep rebuilds the datacenter once per parameter value, with set applied
// to its config, and measures the paper's leaf-level reduction on each.
func sweep(name workload.DCName, opt Options, params []float64, set func(*workload.DCConfig, float64)) ([]SensitivityRow, error) {
	return parallel.Map(context.Background(), len(params), opt.Workers, func(i int) (SensitivityRow, error) {
		run, err := setup(name, opt, func(c *workload.DCConfig) { set(c, params[i]) })
		if err != nil {
			return SensitivityRow{}, err
		}
		res, err := optimize(run, opt, nil)
		if err != nil {
			return SensitivityRow{}, err
		}
		return SensitivityRow{Param: params[i], RPPReductionPct: res.RPPReductionPct}, nil
	})
}

// SweepHeterogeneity varies per-instance phase jitter — the driver behind
// the paper's cross-DC differences ("the degree of heterogeneity among
// instance power traces found in DC1 is much smaller than that in DC3").
func SweepHeterogeneity(name workload.DCName, opt Options, jitterHours []float64) ([]SensitivityRow, error) {
	if len(jitterHours) == 0 {
		jitterHours = []float64{0.25, 1, 2, 3.5}
	}
	return sweep(name, opt, jitterHours, func(c *workload.DCConfig, j float64) { c.Gen.PhaseJitterHours = j })
}

// SweepBaselineMix varies how balanced the historical placement is — the
// second driver of the cross-DC ordering (§5.2.1: DC1's baseline was "more
// balanced").
func SweepBaselineMix(name workload.DCName, opt Options, mixes []float64) ([]SensitivityRow, error) {
	if len(mixes) == 0 {
		mixes = []float64{0, 0.25, 0.5, 0.75}
	}
	return sweep(name, opt, mixes, func(c *workload.DCConfig, m float64) { c.BaselineMix = m })
}

// FormatSensitivity renders a sweep.
func FormatSensitivity(title, paramName string, rows []SensitivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensitivity — %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s=%-6.2f RPP peak reduction %6.2f%%\n", paramName, r.Param, r.RPPReductionPct)
	}
	return b.String()
}

// RoutingComparison quantifies the Power Routing discussion (§6): routing
// balances feeds by re-wiring flexibility; placement achieves the smoothing
// in software.
type RoutingComparison struct {
	DC workload.DCName
	// StaticSum is the sum of feed peaks under fragmented single-cord
	// wiring (service-grouped feeds).
	StaticSum float64
	// RoutedSum is the sum after degree-2 power routing.
	RoutedSum float64
	// PlacedSum is the sum under a workload-aware static assignment with no
	// routing hardware.
	PlacedSum float64
	// Feeds is the feed count used.
	Feeds int
}

// ExtensionRouting runs the comparison on one datacenter, treating each
// leaf power node's position as one feed pair: servers are corded to their
// service-grouped feed and one alternative.
func ExtensionRouting(name workload.DCName, opt Options, feeds int) (*RoutingComparison, error) {
	opt = opt.withDefaults()
	if feeds < 2 {
		feeds = 8
	}
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	// Workload-aware static assignment: the paper's pipeline on a one-level
	// "tree" of `feeds` leaves.
	feedsTree, err := powertree.Build(powertree.TopologySpec{
		Name: "feeds", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: feeds,
		LeafBudget: 1e12,
	})
	if err != nil {
		return nil, err
	}
	res, err := core.New(config(run, opt)).Optimize(run.Fleet, feedsTree)
	if err != nil {
		return nil, err
	}
	test := res.TestTraces
	// Fragmented wiring: instances of the same service share a feed
	// (round-robin over services), cords pair each feed with the next one.
	services := run.Fleet.Services()
	feedOf := make(map[string]int, len(services))
	for i, svc := range services {
		feedOf[svc] = i % feeds
	}
	servers := make([]powerrouting.Server, len(run.Fleet.Instances))
	for i, inst := range run.Fleet.Instances {
		f := feedOf[inst.Service]
		servers[i] = powerrouting.Server{
			ID:    inst.ID,
			FeedA: f,
			FeedB: (f + 1) % feeds,
			Trace: test[inst.ID],
		}
	}
	static, err := powerrouting.StaticSplit(servers, feeds)
	if err != nil {
		return nil, err
	}
	asg, err := powerrouting.Route(servers, powerrouting.Config{Feeds: feeds, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	cmp := &RoutingComparison{DC: name, Feeds: feeds, RoutedSum: asg.SumOfFeedPeaks(), PlacedSum: res.OptimizedAggs.SumOfPeaks(powertree.RPP)}
	for _, p := range static {
		cmp.StaticSum += p
	}
	return cmp, nil
}

// FormatRouting renders the comparison.
func FormatRouting(c *RoutingComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — Power Routing vs workload-aware placement (%s, %d feeds)\n", c.DC, c.Feeds)
	fmt.Fprintf(&b, "  fragmented static wiring:  Σ feed peaks %10.0f\n", c.StaticSum)
	fmt.Fprintf(&b, "  degree-2 power routing:    Σ feed peaks %10.0f (%5.1f%% better, needs dual cords)\n",
		c.RoutedSum, 100*(c.StaticSum-c.RoutedSum)/c.StaticSum)
	fmt.Fprintf(&b, "  workload-aware placement:  Σ feed peaks %10.0f (%5.1f%% better, no new hardware)\n",
		c.PlacedSum, 100*(c.StaticSum-c.PlacedSum)/c.StaticSum)
	return b.String()
}
