package tracestore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// TestConcurrentWritersAndPipelineReaders hammers the store with sensor
// writers while placement-pipeline-style readers keep materialising
// snapshots and aggregating them over a power tree. Run under -race this
// verifies the RWMutex discipline end to end — including the parallel
// per-node aggregation in powertree, which calls the snapshot-backed
// PowerFn from multiple workers at once.
func TestConcurrentWritersAndPipelineReaders(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: 4 * time.Hour})
	t0 := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

	const writers, perWriter, steps = 8, 4, 120
	var allIDs []string
	for g := 0; g < writers; g++ {
		for k := 0; k < perWriter; k++ {
			allIDs = append(allIDs, fmt.Sprintf("w%d-i%d", g, k))
		}
	}
	// Pre-seed one reading per instance so readers never hit an unknown ID
	// or an empty snapshot window.
	for _, id := range allIDs {
		if err := st.Append(id, t0, 100); err != nil {
			t.Fatal(err)
		}
	}

	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "stress", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 4,
		LeafBudget: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	for i, id := range allIDs {
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for s := 1; s < steps; s++ {
				at := t0.Add(time.Duration(s) * time.Minute)
				for k := 0; k < perWriter; k++ {
					if err := st.Append(fmt.Sprintf("w%d-i%d", g, k), at, 50+rng.Float64()*100); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ids := st.Instances()
				traces := make([]timeseries.Series, len(ids))
				if _, err := st.SnapshotQualityBatch(ids, t0, t0.Add(30*time.Minute), 4, func(i int, tr timeseries.Series, _ Quality) {
					traces[i] = tr
				}); err != nil {
					t.Error(err)
					return
				}
				snap := make(map[string]timeseries.Series, len(ids))
				for i, id := range ids {
					snap[id] = traces[i]
				}
				fn := powertree.PowerFn(func(id string) (timeseries.Series, bool) {
					s, ok := snap[id]
					return s, ok
				})
				aggs, err := tree.AggregateAllParallel(fn, 4)
				if err != nil {
					t.Error(err)
					return
				}
				_ = aggs.SumOfPeaks(powertree.RPP)
				for _, n := range aggs.NodesAtLevel(powertree.SB) {
					_ = aggs.Peak(n)
				}
				for _, id := range allIDs {
					if _, err := st.Coverage(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := len(st.Instances()); got != len(allIDs) {
		t.Fatalf("store knows %d instances, want %d", got, len(allIDs))
	}
}
