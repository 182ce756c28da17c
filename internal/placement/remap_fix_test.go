package placement

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// TestRemapConfigRejectsNegatives is the regression test for the silent
// coercion bug: RemapConfig used to treat a negative MaxSwaps as "use the
// default" (a <= 0 check), hiding caller bugs. It must now fail loudly with
// the named error, matching core.RuntimeConfig — through Remap (even when
// the traces could not be scored) and Online.Remap alike.
func TestRemapConfigRejectsNegatives(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 1}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	missing := TraceFn(func(string) (timeseries.Series, bool) { return timeseries.Series{}, false })
	for _, tf := range []TraceFn{traces, missing} {
		if _, err := Remap(tree.Clone(), tf, RemapConfig{MaxSwaps: -1}); !errors.Is(err, ErrBadMaxSwaps) {
			t.Errorf("Remap err = %v, want %v", err, ErrBadMaxSwaps)
		}
	}
	o, err := NewOnline(tree.Clone(), traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := o.Remap(math.Inf(1), 1, -2); !errors.Is(err, ErrBadMaxSwaps) {
		t.Errorf("Online.Remap err = %v, want %v", err, ErrBadMaxSwaps)
	}
	// Zero still means the default, not zero swaps.
	if _, err := Remap(tree.Clone(), traces, RemapConfig{}); err != nil {
		t.Fatalf("zero config must keep defaulting: %v", err)
	}
}

// differentialOracle is score.Differential as it stood before the
// DifferentialFromSum kernel, over the sum of n peers: materialise the peer
// average as timeseries.Mean does, score the pair.
func differentialOracle(instance, sum timeseries.Series, n int) (float64, error) {
	if n == 0 {
		return 0, score.ErrNoTraces
	}
	return score.Pairwise(instance, sum.Scale(1/float64(n)))
}

// remapReference is a test-local copy of Remap as it stood before per-node
// score caching and before scoring from sums: every node's trace set and
// asynchrony score recomputed from scratch on each swap iteration, and three
// full differentials — each re-averaging its peers — per tried pair. A swap's
// capacity check applies it to a clone and sums every node's subtree demands
// from scratch. Partners are tried by score descending, ties by leaf index
// ascending. It returns the number of pairs tried and the number of them
// whose two score.DifferentialBound values both exceed the current
// differentials (the pairs Remap must score exactly), and fails if a bound
// lies below the differential it bounds. The equivalence tests pin Remap
// bit-identical to this oracle.
//
// built resolves the traces the placer's ledger summed when it was built.
// A leaf not yet swapped is scored against the peak of their sum, as
// Online.Remap scores it from the ledger, so a TraceFn that changed after
// the placer was built (the fuzz target's misaligned traces) scores alike.
// With onGrid set every trace lies on the scoring grid (timeseries.Snap),
// and each peer sum is Sum over the peers. Without it, a peer sum is the
// leaf's sum minus the resident's trace, as Remap forms it; the leaf's sum
// is that of its built traces until a swap touches it, then its residents'.
func remapReference(tree *powertree.Node, built, traces TraceFn, cfg RemapConfig, onGrid bool) (swaps []Swap, attempted, scored uint64, err error) {
	maxSwaps := cfg.MaxSwaps
	if maxSwaps <= 0 {
		maxSwaps = 32
	}
	nodes := tree.NodesAtLevel(powertree.RPP)
	if len(nodes) < 2 {
		return nil, 0, 0, nil
	}
	// fits applies the swap of ia (on a) and ib (on b) to a clone of the tree
	// and checks each node's summed subtree demand against every capacity it
	// declares.
	fits := func(a, b *powertree.Node, ia, ib string) (bool, error) {
		if cfg.Policy.Demands == nil {
			return true, nil
		}
		clone := tree.Clone()
		ca, cb := clone.Find(a.Name), clone.Find(b.Name)
		if !ca.Detach(ia) || !cb.Detach(ib) {
			return false, fmt.Errorf("reference: swap bookkeeping failed")
		}
		if err := ca.Attach(ib); err != nil {
			return false, err
		}
		if err := cb.Attach(ia); err != nil {
			return false, err
		}
		ok := true
		clone.Walk(func(n *powertree.Node) {
			for _, dim := range n.Capacities.Dimensions() {
				sum := 0.0
				for _, id := range n.AllInstances() {
					if d, found := cfg.Policy.Demands(id); found {
						sum += d[dim]
					}
				}
				if sum > n.Capacities[dim] {
					ok = false
				}
			}
		})
		return ok, nil
	}
	nodeTraces := func(n *powertree.Node, traces TraceFn) ([]string, []timeseries.Series, error) {
		ids := n.AllInstances()
		out := make([]timeseries.Series, len(ids))
		for i, id := range ids {
			tr, ok := traces(id)
			if !ok {
				return nil, nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, id)
			}
			out[i] = tr
		}
		return ids, out, nil
	}
	swapped := make(map[*powertree.Node]bool)
	nodeScore := func(n *powertree.Node) (float64, error) {
		_, trs, err := nodeTraces(n, traces)
		if err != nil {
			return 0, err
		}
		if len(trs) < 2 {
			return math.Inf(1), nil
		}
		if swapped[n] {
			return score.Asynchrony(trs...)
		}
		_, was, err := nodeTraces(n, built)
		if err != nil {
			return 0, err
		}
		sum, err := timeseries.Sum(was...)
		if err != nil {
			return 0, err
		}
		return score.AsynchronyFromSum(sum.Peak(), trs...)
	}
	// peerSum is the sum of resident j's peers among trs, the traces of a
	// leaf whose sum is leafSum; the zero Series when it does not form.
	peerSum := func(leafSum timeseries.Series, trs []timeseries.Series, j int) timeseries.Series {
		var sum timeseries.Series
		var err error
		if onGrid {
			sum, err = timeseries.Sum(slices.Delete(slices.Clone(trs), j, j+1)...)
		} else {
			sum, err = leafSum.Sub(trs[j])
		}
		if err != nil {
			return timeseries.Series{}
		}
		return sum
	}
	leafSum := func(n *powertree.Node) (timeseries.Series, error) {
		fn := built
		if swapped[n] {
			fn = traces
		}
		_, trs, err := nodeTraces(n, fn)
		if err != nil {
			return timeseries.Series{}, err
		}
		sum, _ := timeseries.Sum(trs...) // one that does not form stays empty: no peer sum forms from it
		return sum, nil
	}
	// bound is score.DifferentialBound over a peer sum of n traces.
	bound := func(cand, sum timeseries.Series, n int) float64 {
		return score.DifferentialBound(&cand, cand.PeakIndex(), &sum, sum.PeakIndex(), n)
	}
	diff := func(cand, sum timeseries.Series, n int) float64 {
		if n == 0 {
			return math.Inf(1)
		}
		d, err := differentialOracle(cand, sum, n)
		if err != nil {
			return math.Inf(-1)
		}
		return d
	}
	for len(swaps) < maxSwaps {
		worstIdx, worstScore := -1, math.Inf(1)
		for i, n := range nodes {
			s, err := nodeScore(n)
			if err != nil {
				return nil, 0, 0, err
			}
			if s < worstScore {
				worstScore, worstIdx = s, i
			}
		}
		if worstIdx < 0 || math.IsInf(worstScore, 1) {
			break
		}
		worst := nodes[worstIdx]
		wIDs, wTraces, err := nodeTraces(worst, traces)
		if err != nil {
			return nil, 0, 0, err
		}
		if len(wIDs) < 2 {
			break
		}
		wSum, err := leafSum(worst)
		if err != nil {
			return nil, 0, 0, err
		}
		nA := len(wTraces) - 1
		victim, victimDiff := -1, math.Inf(1)
		for i := range wIDs {
			d := diff(wTraces[i], peerSum(wSum, wTraces, i), nA)
			if d < victimDiff {
				victimDiff, victim = d, i
			}
		}
		if victim < 0 {
			break
		}
		victimPeers := peerSum(wSum, wTraces, victim)
		type leafScore struct {
			idx int
			s   float64
		}
		order := make([]leafScore, 0, len(nodes))
		for i, n := range nodes {
			if i == worstIdx {
				continue
			}
			s, err := nodeScore(n)
			if err != nil {
				return nil, 0, 0, err
			}
			order = append(order, leafScore{i, s})
		}
		// Partners by score descending, ties by leaf index ascending.
		sort.Slice(order, func(a, b int) bool {
			if order[a].s != order[b].s {
				return order[a].s > order[b].s
			}
			return order[a].idx < order[b].idx
		})
		found := false
		for _, cand := range order {
			partner := nodes[cand.idx]
			pIDs, pTraces, err := nodeTraces(partner, traces)
			if err != nil {
				return nil, 0, 0, err
			}
			if len(pIDs) < 1 {
				continue
			}
			pSum, err := leafSum(partner)
			if err != nil {
				return nil, 0, 0, err
			}
			nB := len(pTraces) - 1
			for j := range pIDs {
				attempted++
				pPeers := peerSum(pSum, pTraces, j)
				curA := victimDiff
				curB := diff(pTraces[j], pPeers, nB)
				newA := diff(pTraces[j], victimPeers, nA)
				newB := diff(wTraces[victim], pPeers, nB)
				boundA, boundB := bound(pTraces[j], victimPeers, nA), bound(wTraces[victim], pPeers, nB)
				if newA > boundA || newB > boundB {
					return nil, 0, 0, fmt.Errorf("reference: bounds %v, %v below differentials %v, %v", boundA, boundB, newA, newB)
				}
				if boundA > curA && boundB > curB {
					scored++
				}
				if newA > curA && newB > curB {
					ok, err := fits(worst, partner, wIDs[victim], pIDs[j])
					if err != nil {
						return nil, 0, 0, err
					}
					if !ok {
						continue
					}
					if !worst.Detach(wIDs[victim]) || !partner.Detach(pIDs[j]) {
						return nil, 0, 0, fmt.Errorf("placement: swap bookkeeping failed")
					}
					if err := worst.Attach(pIDs[j]); err != nil {
						return nil, 0, 0, err
					}
					if err := partner.Attach(wIDs[victim]); err != nil {
						return nil, 0, 0, err
					}
					swaps = append(swaps, Swap{
						InstanceA: wIDs[victim], InstanceB: pIDs[j],
						NodeA: worst.Name, NodeB: partner.Name,
						GainA: newA - curA, GainB: newB - curB,
					})
					swapped[worst], swapped[partner] = true, true
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			break
		}
	}
	// The placer's ledger refolds the leaves the swaps touched once, from
	// their final residents' traces: one no longer shaped as the ledger was
	// built fails it.
	for _, n := range nodes {
		if !swapped[n] {
			continue
		}
		_, trs, err := nodeTraces(n, traces)
		if err != nil {
			return nil, 0, 0, err
		}
		_, was, err := nodeTraces(n, built)
		if err != nil {
			return nil, 0, 0, err
		}
		for i := range trs {
			if trs[i].Len() != was[i].Len() || trs[i].Step != was[i].Step {
				return nil, 0, 0, fmt.Errorf("reference: %q cannot refold: %w", n.Name, timeseries.ErrLenMismatch)
			}
		}
	}
	return swaps, attempted, scored, nil
}

// TestRemapCachedScoringEquivalence pins Remap and Online.Remap bit-identical
// to the recompute-everything reference: identical swap sequences
// (instances, nodes and float gain bits), identical final placements and the
// same numbers of tried and exactly scored pairs on the counters, across fragmented and
// already-smooth starting points, with and without a demand model whose
// tight per-leaf gpu capacities veto some score-improving swaps. After
// Online.Remap the placer must also be current: every node's aggregate peak
// bits and used vector, and every swapped instance's leaf, equal those of a
// placer built fresh over the repaired tree.
func TestRemapCachedScoringEquivalence(t *testing.T) {
	instances, traces, _ := testFixture(t)
	starts := map[string]Placer{
		"oblivious": Oblivious{},
		"random":    Random{Seed: 4},
	}
	rng := rand.New(rand.NewSource(16))
	gpus := make(map[string]powertree.ResourceVector, len(instances))
	for _, inst := range instances {
		gpus[inst.ID] = powertree.ResourceVector{"gpu": float64(1 + rng.Intn(4))}
	}
	demands := DemandFn(func(id string) (powertree.ResourceVector, bool) {
		d, ok := gpus[id]
		return d, ok
	})
	cfgs := []RemapConfig{
		{},
		{MaxSwaps: 3},
		{MaxSwaps: 64},
		{MaxSwaps: 64, Policy: PolicyConfig{Demands: demands}},
	}
	// Remap builds its own placer; Online.Remap runs on one the caller
	// built, as the drift monitor does, at the default worker count, and
	// returns the placer for the currency check.
	entries := []struct {
		name  string
		remap func(*powertree.Node, RemapConfig) ([]Swap, *Online, error)
	}{
		{"Remap", func(tree *powertree.Node, cfg RemapConfig) ([]Swap, *Online, error) {
			swaps, err := Remap(tree, traces, cfg)
			return swaps, nil, err
		}},
		{"Online.Remap", func(tree *powertree.Node, cfg RemapConfig) ([]Swap, *Online, error) {
			o, err := NewOnline(tree, traces, PolicyConfig{Demands: cfg.Policy.Demands})
			if err != nil {
				return nil, nil, err
			}
			_, _, swaps, err := o.Remap(math.Inf(1), 0, cfg.MaxSwaps)
			return swaps, o, err
		}},
	}
	vetoed := false
	for name, placer := range starts {
		base, err := powertree.Build(powertree.TopologySpec{
			Name: "t", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 1, RPPsPerSB: 3,
			LeafBudget: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := placer.Place(base, instances, traces); err != nil {
			t.Fatal(err)
		}
		// Each leaf may hold one gpu more than it starts with, so a swap that
		// trades a small demand for a much larger one overflows.
		for _, leaf := range base.Leaves() {
			used := 0.0
			for _, id := range leaf.Instances {
				used += gpus[id].Get("gpu")
			}
			leaf.Capacities = powertree.ResourceVector{"gpu": used + 1}
		}
		var unguarded []Swap
		for _, cfg := range cfgs {
			refTree := base.Clone()
			want, wantAttempted, wantScored, err := remapReference(refTree, traces, traces, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			var got []Swap
			for _, entry := range entries {
				cachedTree := base.Clone()
				attempted, scored := obsSwapsAttempted.Value(), obsPairsScored.Value()
				var o *Online
				if got, o, err = entry.remap(cachedTree, cfg); err != nil {
					t.Fatal(err)
				}
				if gotAttempted := obsSwapsAttempted.Value() - attempted; gotAttempted != wantAttempted {
					t.Fatalf("%s %s %+v: %d pairs attempted vs %d reference", entry.name, name, cfg, gotAttempted, wantAttempted)
				}
				if gotScored := obsPairsScored.Value() - scored; gotScored != wantScored {
					t.Fatalf("%s %s %+v: %d pairs scored vs %d reference", entry.name, name, cfg, gotScored, wantScored)
				}
				if len(got) != len(want) {
					t.Fatalf("%s %s %+v: %d swaps cached vs %d reference", entry.name, name, cfg, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] || math.Float64bits(got[i].GainA) != math.Float64bits(want[i].GainA) ||
						math.Float64bits(got[i].GainB) != math.Float64bits(want[i].GainB) {
						t.Fatalf("%s %s %+v swap %d: cached %+v != reference %+v", entry.name, name, cfg, i, got[i], want[i])
					}
				}
				if !slices.Equal(cachedTree.AllInstances(), refTree.AllInstances()) {
					t.Fatalf("%s %s %+v: placements diverged", entry.name, name, cfg)
				}
				if o != nil {
					checkPlacerCurrent(t, o, cachedTree, traces, cfg.Policy.Demands, got)
				}
			}
			if cfg.Policy.Demands == nil && cfg.MaxSwaps == 64 {
				unguarded = got
			} else if cfg.Policy.Demands != nil && !slices.Equal(got, unguarded) {
				vetoed = true
			}
		}
	}
	if !vetoed {
		t.Fatal("the demand model never vetoed a swap: the guarded case exercises nothing")
	}
}

// checkPlacerCurrent fails unless o, after a remap applied swaps to tree,
// agrees with a placer built fresh over tree: every node's aggregate peak
// bits and used vector, and the leaf of every swapped instance.
func checkPlacerCurrent(t *testing.T, o *Online, tree *powertree.Node, traces TraceFn, demands DemandFn, swaps []Swap) {
	t.Helper()
	fresh, err := NewOnline(tree, traces, PolicyConfig{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	got, want := o.Aggregates(), fresh.Aggregates()
	tree.Walk(func(n *powertree.Node) {
		if math.Float64bits(got.Peak(n)) != math.Float64bits(want.Peak(n)) {
			t.Errorf("node %q: placer peak %v, fresh %v", n.Name, got.Peak(n), want.Peak(n))
		}
		if !maps.Equal(o.Used(n), fresh.Used(n)) {
			t.Errorf("node %q: placer used %v, fresh %v", n.Name, o.Used(n), fresh.Used(n))
		}
	})
	for _, sw := range swaps {
		for _, id := range [2]string{sw.InstanceA, sw.InstanceB} {
			gotLeaf, gotOK := o.Leaf(id)
			wantLeaf, wantOK := fresh.Leaf(id)
			if gotLeaf != wantLeaf || gotOK != wantOK {
				t.Errorf("instance %q: placer leaf %v (%v), fresh %v (%v)", id, gotLeaf, gotOK, wantLeaf, wantOK)
			}
		}
	}
}

// TestDealRoundRobinResumesAcrossCalls is the distribution test for the
// start-offset fix: dealing two batches with the second call resuming at
// the occupancy left by the first must stay balanced (±1), where the old
// always-start-at-leaf-0 behaviour piled both remainders onto the
// lowest-index leaves.
func TestDealRoundRobinResumesAcrossCalls(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "d", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 5,
		LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	batch := func(prefix string, n int) []string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("%s-%d", prefix, i)
		}
		return ids
	}
	// Two batches of 7 over 5 leaves: each leaves a remainder of 2. With
	// resume offsets the 14 instances spread 3/3/3/3/2; restarting at leaf 0
	// would produce 4/4/2/2/2.
	if err := dealRoundRobin(leaves, batch("a", 7), dealOccupancy(leaves)); err != nil {
		t.Fatal(err)
	}
	if err := dealRoundRobin(leaves, batch("b", 7), dealOccupancy(leaves)); err != nil {
		t.Fatal(err)
	}
	min, max := math.MaxInt32, 0
	for _, leaf := range leaves {
		n := len(leaf.Instances)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		counts := make([]int, len(leaves))
		for i, leaf := range leaves {
			counts[i] = len(leaf.Instances)
		}
		t.Fatalf("repeated deals unbalanced: %v", counts)
	}
}

// TestOnlineRemapHonoursInlineDemands: a demand that arrived inline on the
// Instance, with no DemandFn behind the placer, binds Online.Remap like any
// recorded demand. The instance the unguarded repair moves first is
// re-admitted with a gpu demand that only its own leaf can hold; with the
// other leaves' gpu capacity at 1 the repair still moves it, at 0 every
// such swap overflows and must be vetoed.
func TestOnlineRemapHonoursInlineDemands(t *testing.T) {
	instances, traces, base := testFixture(t)
	if err := (Oblivious{}).Place(base, instances, traces); err != nil {
		t.Fatal(err)
	}
	first, err := Remap(base.Clone(), traces, RemapConfig{MaxSwaps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("the unguarded repair swaps nothing: the fixture exercises nothing")
	}
	moved, home := first[0].InstanceA, first[0].NodeA
	service := ""
	for _, inst := range instances {
		if inst.ID == moved {
			service = inst.Service
		}
	}
	gpu := powertree.ResourceVector{"gpu": 1}
	run := func(otherGPUs float64) ([]Swap, *Online, *powertree.Node) {
		t.Helper()
		tree := base.Clone()
		if !tree.Find(home).Detach(moved) {
			t.Fatalf("%q not on %q", moved, home)
		}
		// Only the home leaf has a gpu while the instance is admitted.
		for _, leaf := range tree.Leaves() {
			leaf.Capacities = powertree.ResourceVector{"gpu": 0}
		}
		tree.Find(home).Capacities = gpu.Clone()
		o, err := NewOnline(tree, traces, PolicyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := o.Admit(Instance{ID: moved, Service: service, Demands: gpu})
		if err != nil {
			t.Fatal(err)
		}
		if leaf.Name != home {
			t.Fatalf("admitted onto %q, want %q", leaf.Name, home)
		}
		for _, leaf := range tree.Leaves() {
			if leaf.Name != home {
				leaf.Capacities = powertree.ResourceVector{"gpu": otherGPUs}
			}
		}
		_, _, swaps, err := o.Remap(math.Inf(1), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return swaps, o, tree
	}
	movesIt := func(swaps []Swap) bool {
		for _, sw := range swaps {
			if sw.InstanceA == moved || sw.InstanceB == moved {
				return true
			}
		}
		return false
	}
	if swaps, _, _ := run(1); !movesIt(swaps) {
		t.Fatalf("with room elsewhere the repair never moves %q: the veto below tests nothing", moved)
	}
	swaps, o, tree := run(0)
	if movesIt(swaps) {
		t.Fatalf("the repair moved %q onto a leaf with no gpu: %+v", moved, swaps)
	}
	if leaf, ok := o.Leaf(moved); !ok || leaf.Name != home {
		t.Fatalf("%q left %q", moved, home)
	}
	for _, leaf := range tree.Leaves() {
		if used := o.Used(leaf).Get("gpu"); used > leaf.Capacities["gpu"] {
			t.Fatalf("leaf %q holds %v gpu over its capacity %v", leaf.Name, used, leaf.Capacities["gpu"])
		}
	}
}
