package powertree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// TestAggregationLinearityProperty: the aggregate of a parent equals the
// element-wise sum of its children's aggregates, and root sum-of-peaks is
// invariant under any redistribution of instances across leaves.
func TestAggregationLinearityProperty(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		spec := TopologySpec{
			Name:        "p",
			SuitesPerDC: rng.Intn(2) + 1, MSBsPerSuite: rng.Intn(2) + 1,
			SBsPerMSB: rng.Intn(2) + 1, RPPsPerSB: rng.Intn(3) + 1,
			LeafBudget: 1000,
		}
		tree, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		leaves := tree.Leaves()
		nInst := rng.Intn(20) + 2
		traces := make(map[string]timeseries.Series, nInst)
		ids := make([]string, nInst)
		n := rng.Intn(30) + 2
		for i := 0; i < nInst; i++ {
			id := string(rune('a'+i%26)) + string(rune('0'+i/26))
			ids[i] = id
			s := timeseries.Zeros(base, time.Minute, n)
			for j := range s.Values {
				s.Values[j] = rng.Float64() * 100
			}
			traces[id] = s
			if err := leaves[rng.Intn(len(leaves))].Attach(id); err != nil {
				t.Fatal(err)
			}
		}
		pf := func(id string) (timeseries.Series, bool) {
			s, ok := traces[id]
			return s, ok
		}

		// Parent aggregate = Σ children aggregates, at every interior node.
		var check func(nd *Node)
		var fail bool
		check = func(nd *Node) {
			if fail || nd.IsLeaf() {
				return
			}
			parentAgg, _, err := oracleAggregate(nd, pf)
			if err != nil {
				t.Fatal(err)
			}
			var sum timeseries.Series
			started := false
			for _, c := range nd.Children {
				childAgg, _, err := oracleAggregate(c, pf)
				if err != nil {
					t.Fatal(err)
				}
				if childAgg.Empty() {
					continue
				}
				if !started {
					sum = childAgg.Clone()
					started = true
				} else if err := sum.AddInPlace(childAgg); err != nil {
					t.Fatal(err)
				}
			}
			if started != !parentAgg.Empty() {
				t.Fatalf("trial %d: emptiness mismatch at %s", trial, nd.Name)
			}
			if started {
				for i := range sum.Values {
					if math.Abs(sum.Values[i]-parentAgg.Values[i]) > 1e-9 {
						fail = true
						t.Fatalf("trial %d: linearity broken at %s index %d", trial, nd.Name, i)
					}
				}
			}
			for _, c := range nd.Children {
				check(c)
			}
		}
		check(tree)

		// Root peak is placement-invariant: shuffle instances to new leaves.
		rootPeakBefore, err := oraclePeak(tree, pf)
		if err != nil {
			t.Fatal(err)
		}
		tree.ClearInstances()
		for _, id := range ids {
			if err := leaves[rng.Intn(len(leaves))].Attach(id); err != nil {
				t.Fatal(err)
			}
		}
		rootPeakAfter, err := oraclePeak(tree, pf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rootPeakBefore-rootPeakAfter) > 1e-9 {
			t.Fatalf("trial %d: root peak changed by redistribution: %v vs %v",
				trial, rootPeakBefore, rootPeakAfter)
		}

		// Sum of peaks is monotone down the tree: finer levels ≥ coarser.
		prev := 0.0
		for _, level := range Levels {
			s, err := tree.SumOfPeaks(level, pf)
			if err != nil {
				t.Fatal(err)
			}
			if s < prev-1e-9 {
				t.Fatalf("trial %d: sum of peaks not monotone at %s: %v < %v", trial, level, s, prev)
			}
			prev = s
		}
	}
}

// randomTree builds a tree of random depth (1–4 levels below a DC root) and
// random fan-out, with parent links wired the way Build wires them.
func randomTree(rng *rand.Rand) *Node {
	depth := rng.Intn(4) + 1
	var build func(level, id int, name string) *Node
	build = func(level, id int, name string) *Node {
		n := &Node{Name: name, Level: Level(level), Budget: 1000}
		if level == depth {
			return n
		}
		for i := 0; i < rng.Intn(3)+1; i++ {
			c := build(level+1, i, fmt.Sprintf("%s/%d", name, i))
			c.parent = n
			n.Children = append(n.Children, c)
		}
		return n
	}
	return build(0, 0, "dc")
}

// TestAggregateAllMatchesPerNodeOracle: the one-pass AggregateAll must match
// the independently recomputed per-node oracle bit-for-bit — traces, peaks,
// missing lists, per-level sums and per-level peak maps — on randomized trees
// with varying depth, leaves without instances, and instances without
// traces, at any worker count.
func TestAggregateAllMatchesPerNodeOracle(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		tree := randomTree(rng)
		n := rng.Intn(40) + 1
		traces := make(map[string]timeseries.Series)
		instID := 0
		for _, leaf := range tree.Leaves() {
			for k := rng.Intn(4); k > 0; k-- { // some leaves stay empty
				id := fmt.Sprintf("i%d", instID)
				instID++
				if err := leaf.Attach(id); err != nil {
					t.Fatal(err)
				}
				if rng.Float64() < 0.15 {
					continue // attached but untraced: must show up in Missing
				}
				s := timeseries.Zeros(base, time.Minute, n)
				for j := range s.Values {
					s.Values[j] = rng.Float64() * 100
				}
				traces[id] = s
			}
		}
		pf := func(id string) (timeseries.Series, bool) {
			s, ok := traces[id]
			return s, ok
		}

		for _, workers := range []int{1, 8} {
			aggs, err := tree.AggregateAllParallel(pf, workers)
			if err != nil {
				t.Fatal(err)
			}
			tree.Walk(func(nd *Node) {
				want, wantMissing, err := oracleAggregate(nd, pf)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := aggs.Trace(nd)
				if ok == want.Empty() {
					t.Fatalf("trial %d workers %d: presence mismatch at %s", trial, workers, nd.Name)
				}
				if len(got.Values) != len(want.Values) {
					t.Fatalf("trial %d workers %d: length mismatch at %s: %d vs %d",
						trial, workers, nd.Name, len(got.Values), len(want.Values))
				}
				for i := range want.Values {
					if got.Values[i] != want.Values[i] {
						t.Fatalf("trial %d workers %d: trace differs at %s index %d: %v vs %v",
							trial, workers, nd.Name, i, got.Values[i], want.Values[i])
					}
				}
				wantPeak := 0.0
				if !want.Empty() {
					wantPeak = want.Peak()
				}
				if aggs.Peak(nd) != wantPeak {
					t.Fatalf("trial %d workers %d: peak differs at %s: %v vs %v",
						trial, workers, nd.Name, aggs.Peak(nd), wantPeak)
				}
				gotMissing := aggs.Missing(nd)
				if len(gotMissing) != len(wantMissing) {
					t.Fatalf("trial %d workers %d: missing count differs at %s: %v vs %v",
						trial, workers, nd.Name, gotMissing, wantMissing)
				}
				for i := range wantMissing {
					if gotMissing[i] != wantMissing[i] {
						t.Fatalf("trial %d workers %d: missing order differs at %s: %v vs %v",
							trial, workers, nd.Name, gotMissing, wantMissing)
					}
				}
			})
			for _, level := range Levels {
				direct, err := tree.SumOfPeaks(level, pf)
				if err != nil {
					t.Fatal(err)
				}
				if direct != aggs.SumOfPeaks(level) {
					t.Fatalf("trial %d workers %d: SumOfPeaks(%s) differs: %v vs %v",
						trial, workers, level, direct, aggs.SumOfPeaks(level))
				}
				for _, nd := range tree.NodesAtLevel(level) {
					want, err := oraclePeak(nd, pf)
					if err != nil {
						t.Fatal(err)
					}
					if got := aggs.Peak(nd); got != want {
						t.Fatalf("trial %d workers %d: %s peak at %s = %v, oracle %v",
							trial, workers, level, nd.Name, got, want)
					}
				}
			}
		}
	}
}
