package powertree

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// benchTree builds a full 4-level tree (2×2×2×2 = 16 leaves) with 8
// day-long instances per leaf.
func benchTree(b *testing.B) (*Node, PowerFn) {
	b.Helper()
	tree, err := Build(TopologySpec{
		Name: "bench", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 10000,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	traces := make(map[string]timeseries.Series)
	for li, leaf := range tree.Leaves() {
		for k := 0; k < 8; k++ {
			id := fmt.Sprintf("i%d-%d", li, k)
			s := timeseries.Zeros(base, 5*time.Minute, 288)
			for j := range s.Values {
				s.Values[j] = 50 + 250*rng.Float64()
			}
			traces[id] = s
			if err := leaf.Attach(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	}
}

// BenchmarkAggregateAllTree: every node's aggregate in one bottom-up pass.
func BenchmarkAggregateAllTree(b *testing.B) {
	tree, pf := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.AggregateAll(pf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerNodeAggregation: the pre-AggregateAll cost model — every
// node's aggregate recomputed independently from its subtree's instances,
// as the old per-level SumOfPeaks loops did.
func BenchmarkPerNodeAggregation(b *testing.B) {
	tree, pf := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var failed error
		tree.Walk(func(n *Node) {
			if failed != nil {
				return
			}
			if _, _, err := oracleAggregate(n, pf); err != nil {
				failed = err
			}
		})
		if failed != nil {
			b.Fatal(failed)
		}
	}
}

// BenchmarkSumOfPeaksAllLevels: the metrics.PeakReduction access pattern —
// sum-of-peaks at all five levels of one tree.
func BenchmarkSumOfPeaksAllLevels(b *testing.B) {
	tree, pf := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs, err := tree.AggregateAll(pf)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, level := range Levels {
			total += aggs.SumOfPeaks(level)
		}
		if total <= 0 {
			b.Fatal("degenerate tree")
		}
	}
}

// BenchmarkAggregatorDeltaTick: one dirty leaf out of 16 folded in
// incrementally — the admission/retirement tick cost AggregateAll pays in
// full every time.
func BenchmarkAggregatorDeltaTick(b *testing.B) {
	tree, pf := benchTree(b)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		b.Fatal(err)
	}
	leaf := tree.Leaves()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.MarkDirty(leaf); err != nil {
			b.Fatal(err)
		}
		if _, err := agg.Update(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedLevelWalk: NodesAtLevel through the snapshot's cached index
// — the regression guard for the walk cache (compare BenchmarkUncachedLevelWalk).
func BenchmarkCachedLevelWalk(b *testing.B) {
	tree, pf := benchTree(b)
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, level := range Levels {
			n += len(aggs.NodesAtLevel(level))
		}
		if n == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkUncachedLevelWalk: the pre-cache cost model — a full tree walk
// and fresh allocation per NodesAtLevel call.
func BenchmarkUncachedLevelWalk(b *testing.B) {
	tree, _ := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, level := range Levels {
			n += len(tree.NodesAtLevel(level))
		}
		if n == 0 {
			b.Fatal("empty tree")
		}
	}
}
