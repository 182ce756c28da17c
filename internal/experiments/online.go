package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// Fragmentation-rate sweep (FGD Fig. 7(a) analogue).
//
// The offline experiments measure how much peak power a full remapping
// recovers; this sweep asks the online question instead: as instances arrive
// one at a time, how much of the tree's advertised headroom does each
// admission policy strand behind lower-level breakers? Following the FGD
// methodology, the tree's budgets are tightened so total capacity equals the
// fleet's summed instance peaks, a fixed shuffled arrival stream is replayed
// under every policy, and the power-fragmentation rate is sampled each time
// arrived load crosses another 10%-of-capacity threshold.

// FragPolicies lists the online policies the sweep compares, in report
// order.
var FragPolicies = []string{"random", "best-fit", "asynchrony"}

// FragRow is one (policy, arrived-load) sample of the sweep.
type FragRow struct {
	// Policy names the online placement policy (see FragPolicies).
	Policy string
	// LoadPct is the arrived load threshold as a percentage of tree
	// capacity. Arrived load counts every instance that showed up,
	// admitted or not.
	LoadPct int
	// ArrivedW is the arrived load in watts when the threshold was crossed.
	ArrivedW float64
	// Admitted and Rejected count arrivals so far by admission outcome.
	Admitted int
	Rejected int
	// DCFragPct and SBFragPct are the power-fragmentation rates (percent
	// of level capacity stranded) at the DC root and the SB level.
	DCFragPct float64
	SBFragPct float64
}

// tightenBudgets rewrites the tree's breaker budgets so each leaf holds an
// equal share of the target capacity and every interior budget is the exact
// sum of its children (the sizing the fragmentation metric's stranded-watts
// identity assumes).
func tightenBudgets(tree *powertree.Node, capacity float64) {
	perLeaf := capacity / float64(len(tree.Leaves()))
	var set func(n *powertree.Node) float64
	set = func(n *powertree.Node) float64 {
		if n.IsLeaf() {
			n.Budget = perLeaf
			return perLeaf
		}
		var sum float64
		for _, c := range n.Children {
			sum += set(c)
		}
		n.Budget = sum
		return sum
	}
	set(tree)
}

// arrivals is the online sweeps' workload: the fleet's instance IDs shuffled
// by the experiment seed — one arrival stream shared by every policy — the
// averaged I-traces as their power, and the capacity they need in total
// (the sum of their peaks).
func arrivals(run *DCRun, opt Options) (order []string, traceFn placement.TraceFn, capacity float64, err error) {
	avg, err := run.Fleet.AveragedITraces(2)
	if err != nil {
		return nil, nil, 0, err
	}
	traceFn = placement.TraceFn(workload.SubPowerFn(avg))
	order = run.Fleet.IDs()
	rng := rand.New(rand.NewSource(opt.Seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, id := range order {
		tr, ok := traceFn(id)
		if !ok {
			return nil, nil, 0, fmt.Errorf("experiments: no averaged trace for %q", id)
		}
		capacity += tr.Peak()
	}
	if capacity <= 0 {
		return nil, nil, 0, fmt.Errorf("experiments: %s fleet offers no load", run.Name)
	}
	return order, traceFn, capacity, nil
}

// tally counts a replayed stream's arrivals by admission outcome.
type tally struct{ admitted, rejected int }

// admitStream replays an arrival stream through o in order: each arrival is
// admitted as its fleet instance, an ErrNoCapacity refusal counts as a
// rejection, and any other error ends the replay. after, when non-nil, sees
// each arrival with the tally so far and ends the replay by returning true.
func admitStream(run *DCRun, o *placement.Online, order []string, after func(id string, t tally) (bool, error)) (tally, error) {
	var t tally
	for _, id := range order {
		inst, ok := run.Fleet.Instance(id)
		if !ok {
			return t, fmt.Errorf("experiments: fleet lost instance %q", id)
		}
		switch _, err := o.Admit(placement.Instance{ID: inst.ID, Service: inst.Service}); {
		case err == nil:
			t.admitted++
		case errors.Is(err, placement.ErrNoCapacity):
			t.rejected++
		default:
			return t, err
		}
		if after != nil {
			if stop, err := after(id, t); stop || err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// FragSweep replays one shuffled arrival stream of the datacenter's fleet
// under each online policy and reports the power-fragmentation rate at every
// arrived-load threshold in loads (percent of capacity; nil means 10–100 in
// steps of 10). Rows come back policy-major in FragPolicies order, then by
// ascending load, and are bit-identical for any opt.Workers.
func FragSweep(name workload.DCName, opt Options, loads []int) ([]FragRow, error) {
	opt = opt.withDefaults()
	if len(loads) == 0 {
		loads = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] <= loads[i-1] {
			return nil, fmt.Errorf("experiments: load thresholds must increase, got %v", loads)
		}
	}
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	order, traceFn, capacity, err := arrivals(run, opt)
	if err != nil {
		return nil, err
	}

	perPolicy, err := parallel.Map(context.Background(), len(FragPolicies), opt.Workers, func(pi int) ([]FragRow, error) {
		tree := run.Tree.Clone()
		tightenBudgets(tree, capacity)
		o, err := placement.NewOnline(tree, traceFn, placement.PolicyConfig{Kind: placement.PolicyKind(FragPolicies[pi]), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		var (
			rows    []FragRow
			arrived float64
			next    int
		)
		sample := func(pct int, t tally) error {
			fr, err := metrics.FragmentationRatesFrom(tree, o.Aggregates())
			if err != nil {
				return err
			}
			row := FragRow{
				Policy: FragPolicies[pi], LoadPct: pct, ArrivedW: arrived,
				Admitted: t.admitted, Rejected: t.rejected,
			}
			for _, r := range fr {
				switch r.Level {
				case powertree.DC:
					row.DCFragPct = r.RatePct
				case powertree.SB:
					row.SBFragPct = r.RatePct
				}
			}
			rows = append(rows, row)
			return nil
		}
		final, err := admitStream(run, o, order, func(id string, t tally) (bool, error) {
			tr, _ := traceFn(id)
			arrived += tr.Peak()
			for ; next < len(loads) && arrived >= float64(loads[next])/100*capacity; next++ {
				if err := sample(loads[next], t); err != nil {
					return true, err
				}
			}
			return next == len(loads), nil
		})
		if err != nil {
			return nil, err
		}
		// Float folding of the shuffled stream can land a hair under the
		// final threshold; the stream is exhausted, so the remaining
		// thresholds see the final state.
		for ; next < len(loads); next++ {
			if err := sample(loads[next], final); err != nil {
				return nil, err
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []FragRow
	for _, r := range perPolicy {
		rows = append(rows, r...)
	}
	return rows, nil
}

// FormatFragSweep renders the sweep as one table per policy.
func FormatFragSweep(name workload.DCName, rows []FragRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Power-fragmentation rate vs arrived load (%s, online placement)\n", name)
	for _, policy := range FragPolicies {
		first := true
		for _, r := range rows {
			if r.Policy != policy {
				continue
			}
			if first {
				fmt.Fprintf(&b, "\npolicy %s\n", policy)
				fmt.Fprintf(&b, "  %-7s %12s %9s %9s %12s %12s\n",
					"load", "arrived", "admitted", "rejected", "frag@DC", "frag@SB")
				first = false
			}
			fmt.Fprintf(&b, "  %5d%%  %9.1f W  %8d  %8d  %10.3f%%  %10.3f%%\n",
				r.LoadPct, r.ArrivedW, r.Admitted, r.Rejected, r.DCFragPct, r.SBFragPct)
		}
	}
	return b.String()
}
