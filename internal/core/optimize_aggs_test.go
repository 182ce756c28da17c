package core

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// TestOptimizeAggregatesEachTreeOnce: Optimize aggregates each of its two
// trees over the test week exactly once, and the ledgers it returns hold,
// for every node, the trace bits and peak of a fresh aggregation of the
// same tree, at any worker count.
func TestOptimizeAggregatesEachTreeOnce(t *testing.T) {
	passes := obs.Default().Counter("smoothop_powertree_aggregations_total", "")
	fleet, tree, dcCfg := testDC(t, workload.DC3)
	for _, workers := range []int{1, 8} {
		fw := New(Config{TopServices: 8, Seed: 1, Baseline: placement.Oblivious{MixFraction: dcCfg.BaselineMix}, Workers: workers})
		before := passes.Value()
		pr, err := fw.Optimize(fleet, tree)
		if err != nil {
			t.Fatal(err)
		}
		if got := passes.Value() - before; got != 2 {
			t.Fatalf("workers %d: Optimize ran %d aggregation passes, want 2", workers, got)
		}
		testFn := workload.SubPowerFn(pr.TestTraces)
		for _, c := range []struct {
			name string
			tree *powertree.Node
			aggs *powertree.Aggregates
		}{
			{"baseline", pr.BaselineTree, pr.BaselineAggs},
			{"optimized", pr.OptimizedTree, pr.OptimizedAggs},
		} {
			fresh, err := c.tree.AggregateAll(testFn)
			if err != nil {
				t.Fatal(err)
			}
			nodes := 0
			c.tree.Walk(func(n *powertree.Node) {
				nodes++
				got, gotOK := c.aggs.Trace(n)
				want, wantOK := fresh.Trace(n)
				if gotOK != wantOK || len(got.Values) != len(want.Values) {
					t.Fatalf("workers %d, %s %s: trace present %v with %d values, want %v with %d",
						workers, c.name, n.Name, gotOK, len(got.Values), wantOK, len(want.Values))
				}
				for i := range want.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
						t.Fatalf("workers %d, %s %s: value %d = %v, want %v", workers, c.name, n.Name, i, got.Values[i], want.Values[i])
					}
				}
				if gp, wp := c.aggs.Peak(n), fresh.Peak(n); math.Float64bits(gp) != math.Float64bits(wp) {
					t.Fatalf("workers %d, %s %s: peak %v, want %v", workers, c.name, n.Name, gp, wp)
				}
			})
			if nodes != len(c.aggs.Nodes()) {
				t.Fatalf("workers %d, %s: ledger holds %d nodes, tree has %d", workers, c.name, len(c.aggs.Nodes()), nodes)
			}
		}
	}
}
