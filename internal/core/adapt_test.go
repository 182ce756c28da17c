package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/detmap"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// adaptOracle is the drift monitor as it stood before it read the ledger:
// every leaf's residents gathered and summed afresh by score.Asynchrony,
// and Remap left to score every leaf again on its own.
func adaptOracle(tree *powertree.Node, traces placement.TraceFn, aggs *powertree.Aggregates, scoreFloor float64, maxSwaps int) (*DriftReport, error) {
	scores := make(map[string]float64)
	for _, leaf := range tree.NodesAtLevel(powertree.RPP) {
		ids := leaf.AllInstances()
		if len(ids) < 2 {
			continue
		}
		trs := make([]timeseries.Series, len(ids))
		for i, id := range ids {
			tr, ok := traces(id)
			if !ok {
				return nil, fmt.Errorf("no trace for %q", id)
			}
			trs[i] = tr
		}
		s, err := score.Asynchrony(trs...)
		if err != nil {
			return nil, err
		}
		scores[leaf.Name] = s
	}
	rep := &DriftReport{WorstScore: math.Inf(1), SumOfPeaks: aggs.SumOfPeaks(powertree.RPP)}
	for _, node := range detmap.SortedKeys(scores) {
		if s := scores[node]; s < rep.WorstScore {
			rep.WorstScore, rep.WorstNode = s, node
		}
	}
	if rep.WorstScore < scoreFloor {
		var err error
		if rep.Swaps, err = placement.Remap(tree, traces, placement.RemapConfig{MaxSwaps: maxSwaps}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// TestAdaptMatchesOracle runs the drift monitor over the baseline placement
// of three seeded datacenters at workers 1 and 8: the worst leaf, the bits
// of its score and of Σ leaf peaks, every swap with its gain bits, and the
// final placement must equal the old path's.
func TestAdaptMatchesOracle(t *testing.T) {
	for _, dc := range []workload.DCName{workload.DC1, workload.DC2, workload.DC3} {
		fleet, tree, _ := testDC(t, dc)
		pr, err := New(Config{TopServices: 8, Seed: 1}).Optimize(fleet, tree)
		if err != nil {
			t.Fatal(err)
		}
		traces := placement.TraceFn(workload.SubPowerFn(pr.TestTraces))
		for _, workers := range []string{"1", "8"} {
			t.Setenv(parallel.EnvWorkers, workers)
			gotTree, wantTree := pr.BaselineTree.Clone(), pr.BaselineTree.Clone()
			o, err := placement.NewOnline(gotTree, traces, placement.PolicyConfig{})
			if err != nil {
				t.Fatal(err)
			}
			wantAggs, err := wantTree.AggregateAll(powertree.PowerFn(traces))
			if err != nil {
				t.Fatal(err)
			}
			got, err := adapt(o, 1.5, 16, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := adaptOracle(wantTree, traces, wantAggs, 1.5, 16)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%s workers %s", dc, workers)
			if got.WorstNode != want.WorstNode || math.Float64bits(got.WorstScore) != math.Float64bits(want.WorstScore) ||
				math.Float64bits(got.SumOfPeaks) != math.Float64bits(want.SumOfPeaks) {
				t.Fatalf("%s: report %s %v %v, oracle %s %v %v", ctx, got.WorstNode, got.WorstScore, got.SumOfPeaks, want.WorstNode, want.WorstScore, want.SumOfPeaks)
			}
			if len(got.Swaps) == 0 || len(got.Swaps) != len(want.Swaps) {
				t.Fatalf("%s: %d swaps, oracle %d", ctx, len(got.Swaps), len(want.Swaps))
			}
			for i := range got.Swaps {
				g, w := got.Swaps[i], want.Swaps[i]
				if g != w || math.Float64bits(g.GainA) != math.Float64bits(w.GainA) || math.Float64bits(g.GainB) != math.Float64bits(w.GainB) {
					t.Fatalf("%s: swap %d %+v, oracle %+v", ctx, i, g, w)
				}
			}
			if !slices.Equal(gotTree.AllInstances(), wantTree.AllInstances()) {
				t.Fatalf("%s: placements diverged", ctx)
			}
		}
	}
}
