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

// churnShape builds a 4×4×4×rpps tree (rpps = 10 is the end-to-end
// benchmark's 640 leaves) holding residents instances dealt round-robin,
// their one-week traces at 30-minute step cycling through 97 distinct
// series.
func churnShape(tb testing.TB, rpps, residents int) (*Node, PowerFn) {
	tb.Helper()
	tree, err := Build(TopologySpec{
		Name: "c", SuitesPerDC: 4, MSBsPerSuite: 4, SBsPerMSB: 4, RPPsPerSB: rpps,
		LeafBudget: 1e9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(640))
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	distinct := make([]timeseries.Series, 97)
	for i := range distinct {
		distinct[i] = timeseries.Zeros(base, 30*time.Minute, 336)
		for j := range distinct[i].Values {
			distinct[i].Values[j] = 100 + 200*rng.Float64()
		}
	}
	index := make(map[string]int, residents)
	leaves := tree.Leaves()
	for i := 0; i < residents; i++ {
		id := fmt.Sprintf("r-%05d", i)
		index[id] = i % len(distinct)
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		i, ok := index[id]
		return distinct[i], ok
	}
}

// BenchmarkAggregatorUpdate: one dirty leaf out of 640 holding ≈ 16
// residents each — an admission's ledger update at the end-to-end
// benchmark's shape.
func BenchmarkAggregatorUpdate(b *testing.B) {
	tree, pf := churnShape(b, 10, 10_000)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		b.Fatal(err)
	}
	leaf := tree.Leaves()[317]
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
