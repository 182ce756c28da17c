package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// BenchmarkEvaluateTrip times one trip_breaker query on a warm snapshot at
// the plan_mix_2k benchmark workload's shape: 2,000 instances on a
// 4×2×2×8 tree (157 nodes), week-long traces at 30-minute steps (336
// slots), a random non-root node at budget fraction 0.5.
func BenchmarkEvaluateTrip(b *testing.B) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "dc", SuitesPerDC: 4, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 8,
		LeafBudget: 16 * 310, BudgetMargin: 0.02,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	traces := make(map[string]timeseries.Series)
	services := make(map[string]string)
	leaves := tree.Leaves()
	for i := 0; i < 2000; i++ {
		svc := fmt.Sprintf("svc%02d", i%12)
		id := fmt.Sprintf("%s-%04d", svc, i)
		phase, amp := 48*rng.Float64(), 50+100*rng.Float64()
		vals := make([]float64, 336)
		for k := range vals {
			vals[k] = 150 + amp*math.Sin(2*math.Pi*(float64(k)+phase)/48)
		}
		traces[id] = timeseries.New(start, 30*time.Minute, vals)
		services[id] = svc
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := NewSnapshot(tree, traces, services, start.Add(7*24*time.Hour), 30*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	var nodes []string
	tree.Walk(func(n *powertree.Node) {
		if n.Parent() != nil {
			nodes = append(nodes, n.Name)
		}
	})
	ctx := context.Background()
	if _, err := snap.Evaluate(ctx, Query{Kind: KindTripBreaker, Node: nodes[0], BudgetFraction: 0.5}, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Kind: KindTripBreaker, Node: nodes[rng.Intn(len(nodes))], BudgetFraction: 0.5}
		if _, err := snap.Evaluate(ctx, q, 0); err != nil {
			b.Fatal(err)
		}
	}
}
