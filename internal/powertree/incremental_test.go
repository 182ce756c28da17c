package powertree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/timeseries"
)

// requireSameAggs fails unless got and want agree bit-for-bit — trace
// values, peaks, and missing lists — on every node of the tree.
func requireSameAggs(t *testing.T, tree *Node, got, want *Aggregates, ctx string) {
	t.Helper()
	tree.Walk(func(nd *Node) {
		gs, gok := got.Trace(nd)
		ws, wok := want.Trace(nd)
		if gok != wok {
			t.Fatalf("%s: presence mismatch at %s: %v vs %v", ctx, nd.Name, gok, wok)
		}
		if len(gs.Values) != len(ws.Values) {
			t.Fatalf("%s: length mismatch at %s: %d vs %d", ctx, nd.Name, len(gs.Values), len(ws.Values))
		}
		for i := range ws.Values {
			if gs.Values[i] != ws.Values[i] {
				t.Fatalf("%s: trace differs at %s index %d: %v vs %v", ctx, nd.Name, i, gs.Values[i], ws.Values[i])
			}
		}
		if got.Peak(nd) != want.Peak(nd) {
			t.Fatalf("%s: peak differs at %s: %v vs %v", ctx, nd.Name, got.Peak(nd), want.Peak(nd))
		}
		gslot, wslot := got.PeakSlotAt(got.Position(nd)), want.PeakSlotAt(want.Position(nd))
		if gslot != wslot || gslot != gs.PeakIndex() {
			t.Fatalf("%s: peak slot differs at %s: %d vs %d (PeakIndex %d)",
				ctx, nd.Name, gslot, wslot, gs.PeakIndex())
		}
		gm, wm := got.Missing(nd), want.Missing(nd)
		if len(gm) != len(wm) {
			t.Fatalf("%s: missing count differs at %s: %v vs %v", ctx, nd.Name, gm, wm)
		}
		for i := range wm {
			if gm[i] != wm[i] {
				t.Fatalf("%s: missing order differs at %s: %v vs %v", ctx, nd.Name, gm, wm)
			}
		}
	})
}

// requirePositional fails unless aggs lays out root's subtree in pre-order
// with each subtree's extent, and at every position the positional reads
// equal the *Node reads of that position's node bit for bit.
func requirePositional(t *testing.T, root *Node, aggs *Aggregates, ctx string) {
	t.Helper()
	var walk []*Node
	root.Walk(func(n *Node) { walk = append(walk, n) })
	nodes := aggs.Nodes()
	if len(nodes) != len(walk) {
		t.Fatalf("%s: %d positions, %d nodes under %s", ctx, len(nodes), len(walk), root.Name)
	}
	for p, n := range nodes {
		if n != walk[p] {
			t.Fatalf("%s: position %d holds %s, pre-order has %s", ctx, p, n.Name, walk[p].Name)
		}
		if got := aggs.Position(n); got != p {
			t.Fatalf("%s: Position(%s) = %d, want %d", ctx, n.Name, got, p)
		}
		size := 0
		n.Walk(func(*Node) { size++ })
		if got := aggs.SubtreeEnd(p); got != p+size {
			t.Fatalf("%s: SubtreeEnd(%d) = %d, want %d", ctx, p, got, p+size)
		}
		ps, pok := aggs.TraceAt(p)
		ns, nok := aggs.Trace(n)
		if pok != nok || len(ps.Values) != len(ns.Values) || !ps.Start.Equal(ns.Start) || ps.Step != ns.Step {
			t.Fatalf("%s: TraceAt(%d) and Trace(%s) differ in shape", ctx, p, n.Name)
		}
		for i := range ps.Values {
			if math.Float64bits(ps.Values[i]) != math.Float64bits(ns.Values[i]) {
				t.Fatalf("%s: TraceAt(%d)[%d] and Trace(%s)[%d] differ", ctx, p, i, n.Name, i)
			}
		}
		if math.Float64bits(aggs.PeakAt(p)) != math.Float64bits(aggs.Peak(n)) {
			t.Fatalf("%s: PeakAt(%d) = %v, Peak(%s) = %v", ctx, p, aggs.PeakAt(p), n.Name, aggs.Peak(n))
		}
		if aggs.PeakSlotAt(p) != ns.PeakIndex() {
			t.Fatalf("%s: PeakSlotAt(%d) = %d, Trace(%s).PeakIndex() = %d", ctx, p, aggs.PeakSlotAt(p), n.Name, ns.PeakIndex())
		}
	}
}

// requireForeign fails unless n reads as outside the aggregation: Position
// -1, Peak 0, PeakSlotAt -1, Trace false and Missing nil.
func requireForeign(t *testing.T, aggs *Aggregates, n *Node, ctx string) {
	t.Helper()
	_, ok := aggs.Trace(n)
	slot := aggs.PeakSlotAt(aggs.Position(n))
	if aggs.Position(n) != -1 || aggs.Peak(n) != 0 || slot != -1 || ok || aggs.Missing(n) != nil {
		t.Fatalf("%s: foreign node %s reads position %d, peak %v, slot %d, trace %v, missing %v",
			ctx, n.Name, aggs.Position(n), aggs.Peak(n), slot, ok, aggs.Missing(n))
	}
}

// within reports whether n lies in the subtree rooted at root.
func within(n, root *Node) bool {
	for ; n != nil; n = n.Parent() {
		if n == root {
			return true
		}
	}
	return false
}

// TestAggregatorUpdateMatchesFresh: after any sequence of admit / retire /
// swap / trace-change events with the touched leaves marked dirty, Update
// must be bit-identical to a fresh AggregateAll over the same tree and
// traces — the tentpole determinism contract — at workers 1 and 8. That
// includes every node's peak slot, which must also be the first maximum of
// the node's trace; odd trials draw readings on a coarse grid so aggregates
// reach their peak at several slots. Both snapshots' positional reads must
// equal their *Node reads at every position. A second aggregator rooted at
// an interior node (as esd aggregates subtrees) takes the marks inside its
// subtree, refuses the rest with ErrForeignLeaf and its own root with
// ErrNotALeaf, matches both a fresh sweep of the subtree and the whole
// tree's entries, and reads every node outside it as foreign.
func TestAggregatorUpdateMatchesFresh(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	for _, workers := range []int{1, 8} {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		for trial := 0; trial < 25; trial++ {
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			tree := randomTree(rng)
			leaves := tree.Leaves()
			n := rng.Intn(30) + 2
			traces := make(map[string]timeseries.Series)
			newTrace := func() timeseries.Series {
				s := timeseries.Zeros(base, time.Minute, n)
				for j := range s.Values {
					s.Values[j] = rng.Float64() * 100
					if trial%2 == 1 {
						s.Values[j] = math.Floor(s.Values[j] / 25)
					}
				}
				return s
			}
			instID := 0
			var placed []string        // ids currently attached somewhere
			home := map[string]*Node{} // id → hosting leaf
			for _, leaf := range leaves {
				for k := rng.Intn(3); k > 0; k-- {
					id := fmt.Sprintf("i%d", instID)
					instID++
					if err := leaf.Attach(id); err != nil {
						t.Fatal(err)
					}
					if rng.Float64() > 0.1 { // some stay untraced → Missing
						traces[id] = newTrace()
					}
					placed = append(placed, id)
					home[id] = leaf
				}
			}
			pf := func(id string) (timeseries.Series, bool) {
				s, ok := traces[id]
				return s, ok
			}

			agg, err := NewAggregator(tree, pf)
			if err != nil {
				t.Fatal(err)
			}
			sub := tree // the interior root: a random interior non-root node when there is one
			var interior []*Node
			tree.Walk(func(n *Node) {
				if n != tree && !n.IsLeaf() {
					interior = append(interior, n)
				}
			})
			if len(interior) > 0 {
				sub = interior[rng.Intn(len(interior))]
			}
			subAgg, err := NewAggregator(sub, pf)
			if err != nil {
				t.Fatal(err)
			}
			if err := subAgg.MarkDirty(sub); !errors.Is(err, ErrNotALeaf) {
				t.Fatalf("trial %d: marking the interior root %s: got %v, want ErrNotALeaf", trial, sub.Name, err)
			}
			mark := func(touched ...*Node) {
				if err := agg.MarkDirty(touched...); err != nil {
					t.Fatal(err)
				}
				for _, leaf := range touched {
					err := subAgg.MarkDirty(leaf)
					if within(leaf, sub) && err != nil {
						t.Fatal(err)
					}
					if !within(leaf, sub) && !errors.Is(err, ErrForeignLeaf) {
						t.Fatalf("trial %d: marking %s outside %s: got %v, want ErrForeignLeaf", trial, leaf.Name, sub.Name, err)
					}
				}
			}

			for step := 0; step < 8; step++ {
				// Apply a random batch of churn events, marking each touched
				// leaf dirty as a caller would.
				for ev := rng.Intn(4) + 1; ev > 0; ev-- {
					switch k := rng.Intn(4); {
					case k == 0: // admit
						id := fmt.Sprintf("i%d", instID)
						instID++
						leaf := leaves[rng.Intn(len(leaves))]
						if err := leaf.Attach(id); err != nil {
							t.Fatal(err)
						}
						if rng.Float64() > 0.1 {
							traces[id] = newTrace()
						}
						placed = append(placed, id)
						home[id] = leaf
						mark(leaf)
					case k == 1 && len(placed) > 0: // retire
						i := rng.Intn(len(placed))
						id := placed[i]
						leaf := home[id]
						if !leaf.Detach(id) {
							t.Fatalf("trial %d: %s not on its home leaf", trial, id)
						}
						placed = append(placed[:i], placed[i+1:]...)
						delete(home, id)
						mark(leaf)
					case k == 2 && len(placed) > 0: // swap to another leaf
						id := placed[rng.Intn(len(placed))]
						from, to := home[id], leaves[rng.Intn(len(leaves))]
						from.Detach(id)
						if err := to.Attach(id); err != nil {
							t.Fatal(err)
						}
						home[id] = to
						mark(from, to)
					case k == 3 && len(placed) > 0: // trace change in place
						id := placed[rng.Intn(len(placed))]
						traces[id] = newTrace()
						mark(home[id])
					}
				}

				got, err := agg.Update()
				if err != nil {
					t.Fatal(err)
				}
				if again, err := agg.Update(); err != nil || again != got {
					t.Fatalf("trial %d step %d: dirty set not cleared (%v)", trial, step, err)
				}
				want, err := tree.AggregateAll(pf)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("workers %d trial %d step %d", workers, trial, step)
				requireSameAggs(t, tree, got, want, ctx)
				requirePositional(t, tree, got, ctx)
				requirePositional(t, tree, want, ctx)

				subGot, err := subAgg.Update()
				if err != nil {
					t.Fatal(err)
				}
				subWant, err := sub.AggregateAll(pf)
				if err != nil {
					t.Fatal(err)
				}
				subCtx := ctx + " rooted at " + sub.Name
				requireSameAggs(t, sub, subGot, subWant, subCtx)
				requireSameAggs(t, sub, subGot, got, subCtx)
				requirePositional(t, sub, subGot, subCtx)
				tree.Walk(func(n *Node) {
					if !within(n, sub) {
						requireForeign(t, subGot, n, subCtx)
					}
				})
				requireForeign(t, got, &Node{Name: "elsewhere"}, ctx)
			}
		}
	}
}

// TestAggregatorUpdateAllocsFlat: a one-leaf MarkDirty + Update allocates
// the same number of times on 64 leaves as on 640 — the copied entry slab is
// one allocation whatever its length, and the leaf's root path is as long
// in both trees — so no per-update cost grows with the clean rest of the
// tree.
func TestAggregatorUpdateAllocsFlat(t *testing.T) {
	allocs := func(rpps int) float64 {
		tree, pf := churnShape(t, rpps, 16*64*rpps)
		agg, err := NewAggregator(tree, pf)
		if err != nil {
			t.Fatal(err)
		}
		leaf := tree.Leaves()[5]
		return testing.AllocsPerRun(50, func() {
			if err := agg.MarkDirty(leaf); err != nil {
				t.Fatal(err)
			}
			if _, err := agg.Update(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1), allocs(10)
	t.Logf("allocations per one-leaf update: %v at 64 leaves, %v at 640", small, large)
	if small != large {
		t.Fatalf("one-leaf update allocates %v times at 64 leaves but %v at 640", small, large)
	}
}

// TestAggregatorEmptyDirtyNoop: Update with nothing marked dirty must return
// the cached snapshot itself — same pointer, no recompute.
func TestAggregatorEmptyDirtyNoop(t *testing.T) {
	tree, pf := smallTree(t)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	before := agg.Snapshot()
	got, err := agg.Update()
	if err != nil {
		t.Fatal(err)
	}
	if got != before {
		t.Fatal("no-op Update returned a new snapshot")
	}
	if got != agg.Snapshot() {
		t.Fatal("no-op Update replaced the cached snapshot")
	}
}

// smallTree builds a fixed 2×1×1×2 tree with two traced instances per leaf.
func smallTree(t *testing.T) (*Node, PowerFn) {
	t.Helper()
	tree, err := Build(TopologySpec{
		Name: "t", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(99))
	traces := make(map[string]timeseries.Series)
	for li, leaf := range tree.Leaves() {
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("i%d-%d", li, k)
			s := timeseries.Zeros(base, time.Minute, 16)
			for j := range s.Values {
				s.Values[j] = rng.Float64() * 100
			}
			traces[id] = s
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	}
}

// TestAggregatorMarkDirtyValidation: interior nodes, nil, and leaves of a
// different tree are rejected with the named errors, and a failed call
// records none of its marks.
func TestAggregatorMarkDirtyValidation(t *testing.T) {
	tree, pf := smallTree(t)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.MarkDirty(tree); !errors.Is(err, ErrNotALeaf) {
		t.Fatalf("interior node: got %v, want ErrNotALeaf", err)
	}
	if err := agg.MarkDirty(nil); !errors.Is(err, ErrForeignLeaf) {
		t.Fatalf("nil node: got %v, want ErrForeignLeaf", err)
	}
	other, _ := Build(TopologySpec{Name: "o", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 1})
	if err := agg.MarkDirty(other.Leaves()[0]); !errors.Is(err, ErrForeignLeaf) {
		t.Fatalf("foreign leaf: got %v, want ErrForeignLeaf", err)
	}
	// A batch with one bad target must record nothing.
	if err := agg.MarkDirty(tree.Leaves()[0], nil); err == nil {
		t.Fatal("batch with nil target accepted")
	}
	before := agg.Snapshot()
	if snap, err := agg.Update(); err != nil || snap != before {
		t.Fatalf("failed MarkDirty left marks behind: Update was not a no-op (%v)", err)
	}
}

// TestAggregatorUpdateErrorKeepsState: a fold error (length-mismatched
// traces) must leave the snapshot and dirty set untouched so the caller can
// repair the traces and retry the same Update.
func TestAggregatorUpdateErrorKeepsState(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	tree, err := Build(TopologySpec{Name: "e", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves()[0]
	traces := map[string]timeseries.Series{
		"a": timeseries.Zeros(base, time.Minute, 8),
		"b": timeseries.Zeros(base, time.Minute, 8),
	}
	for _, id := range []string{"a", "b"} {
		if err := leaf.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	pf := func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	}
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	before := agg.Snapshot()

	traces["b"] = timeseries.Zeros(base, time.Minute, 9) // length mismatch
	if err := agg.MarkDirty(leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Update(); err == nil {
		t.Fatal("Update over mismatched traces succeeded")
	}
	if agg.Snapshot() != before {
		t.Fatal("failed Update replaced the snapshot")
	}

	// The retry only matches a fresh sweep if the failed Update kept its
	// dirty mark: a dropped mark would make it a no-op returning before.
	traces["b"] = timeseries.Zeros(base, time.Minute, 8) // repaired
	got, err := agg.Update()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAggs(t, tree, got, want, "retry after repair")
}

// TestAggregatorConcurrentReads: Snapshot readers racing a churn loop of
// MarkDirty+Update must always observe a complete, internally consistent
// snapshot (exercised under -race in make check).
func TestAggregatorConcurrentReads(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	tree, err := Build(TopologySpec{Name: "c", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	var tracesMu sync.RWMutex
	traces := make(map[string]timeseries.Series)
	rng := rand.New(rand.NewSource(7))
	for li, leaf := range leaves {
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("i%d-%d", li, k)
			s := timeseries.Zeros(base, time.Minute, 24)
			for j := range s.Values {
				s.Values[j] = rng.Float64() * 100
			}
			traces[id] = s
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	pf := func(id string) (timeseries.Series, bool) {
		tracesMu.RLock()
		defer tracesMu.RUnlock()
		s, ok := traces[id]
		return s, ok
	}
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := agg.Snapshot()
				var total float64
				for _, level := range Levels {
					total += snap.SumOfPeaks(level)
				}
				if total < 0 {
					panic("negative sum of peaks")
				}
				for _, leaf := range snap.Leaves() {
					snap.Trace(leaf)
				}
			}
		}()
	}

	churn := rand.New(rand.NewSource(8))
	for step := 0; step < 200; step++ {
		leaf := leaves[churn.Intn(len(leaves))]
		id := leaf.Instances[churn.Intn(len(leaf.Instances))]
		s := timeseries.Zeros(base, time.Minute, 24)
		for j := range s.Values {
			s.Values[j] = churn.Float64() * 100
		}
		tracesMu.Lock()
		traces[id] = s
		tracesMu.Unlock()
		if err := agg.MarkDirty(leaf); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Update(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	got := agg.Snapshot()
	want, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAggs(t, tree, got, want, "after concurrent churn")
}

// TestAggregatesCachedWalks: the snapshot's cached Leaves/NodesAtLevel must
// list exactly the nodes a fresh tree walk finds, in the same order.
func TestAggregatesCachedWalks(t *testing.T) {
	tree, pf := smallTree(t)
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	wantLeaves := tree.Leaves()
	gotLeaves := aggs.Leaves()
	if len(gotLeaves) != len(wantLeaves) {
		t.Fatalf("Leaves: %d vs %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if gotLeaves[i] != wantLeaves[i] {
			t.Fatalf("Leaves order differs at %d", i)
		}
	}
	for _, level := range Levels {
		want := tree.NodesAtLevel(level)
		got := aggs.NodesAtLevel(level)
		if len(got) != len(want) {
			t.Fatalf("NodesAtLevel(%s): %d vs %d", level, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NodesAtLevel(%s) order differs at %d", level, i)
			}
		}
	}
	// Cached: repeated calls return the same backing slice, not a re-walk.
	if len(aggs.Leaves()) > 0 && &aggs.Leaves()[0] != &gotLeaves[0] {
		t.Fatal("Leaves() re-allocated on second call")
	}
}

// requireSameEntries fails unless got and want hold the same entry at every
// position: presence, trace shape and value bits, peak bits, slot and
// missing list.
func requireSameEntries(t *testing.T, got, want *Aggregates, ctx string) {
	t.Helper()
	if len(got.entries) != len(want.entries) {
		t.Fatalf("%s: %d entries, want %d", ctx, len(got.entries), len(want.entries))
	}
	for p, w := range want.entries {
		g, name := got.entries[p], want.index.nodes[p].Name
		if g.started != w.started || !g.trace.Start.Equal(w.trace.Start) || g.trace.Step != w.trace.Step ||
			len(g.trace.Values) != len(w.trace.Values) {
			t.Fatalf("%s: %s holds a %d-slot trace (started %v), want %d slots (started %v)",
				ctx, name, len(g.trace.Values), g.started, len(w.trace.Values), w.started)
		}
		for i, v := range w.trace.Values {
			if math.Float64bits(g.trace.Values[i]) != math.Float64bits(v) {
				t.Fatalf("%s: %s reads %v at slot %d, want %v", ctx, name, g.trace.Values[i], i, v)
			}
		}
		if math.Float64bits(g.peak) != math.Float64bits(w.peak) || g.slot != w.slot {
			t.Fatalf("%s: %s peak %v at slot %d, want %v at %d", ctx, name, g.peak, g.slot, w.peak, w.slot)
		}
		if !slices.Equal(g.missing, w.missing) {
			t.Fatalf("%s: %s missing %v, want %v", ctx, name, g.missing, w.missing)
		}
	}
}

// FuzzAggregatorAppendMatchesFresh runs a random sequence of ledger steps on
// a random tree (empty leaves included): appends, each an instance attached
// as a leaf's last and folded in by Append; detaches and trace changes,
// each folded in by MarkDirty + Update; and appends made while another leaf
// is marked dirty. Readings are mostly off the grid, so a sum's bits depend
// on its order, and the rest are small integers, so peaks tie; some
// instances have no trace. After every step every entry must match a fresh
// AggregateAll. An arrival whose trace is one slot too long must fail as a
// twin aggregator's MarkDirty + Update fails, with the same text, leave the
// snapshot as it was, and leave the leaf marked dirty: once its trace is
// repaired, Update folds it in.
func FuzzAggregatorAppendMatchesFresh(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		tree := randomTree(rng)
		leaves := tree.Leaves()
		slots := 1 + rng.Intn(6)
		traces := make(map[string]timeseries.Series)
		pf := func(id string) (timeseries.Series, bool) {
			s, ok := traces[id]
			return s, ok
		}
		draw := func(id string, n int) {
			if rng.Intn(8) == 0 {
				delete(traces, id) // unknown: the fold lists it as missing
				return
			}
			s := timeseries.Zeros(base, time.Minute, n)
			for j := range s.Values {
				if rng.Intn(4) == 0 {
					s.Values[j] = float64(rng.Intn(5) - 1)
				} else {
					s.Values[j] = rng.NormFloat64() * 10
				}
			}
			traces[id] = s
		}
		next := 0
		attach := func(leaf *Node) string {
			id := fmt.Sprintf("i%d", next)
			next++
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
			return id
		}
		for _, leaf := range leaves {
			for k := rng.Intn(3); k > 0; k-- {
				draw(attach(leaf), slots)
			}
		}
		agg, err := NewAggregator(tree, pf)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewAggregator(tree, pf)
		if err != nil {
			t.Fatal(err)
		}
		refold := func(g *Aggregator, leaf *Node) error {
			if err := g.MarkDirty(leaf); err != nil {
				t.Fatal(err)
			}
			_, err := g.Update()
			return err
		}
		for step := 0; step < 24; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			leaf := leaves[rng.Intn(len(leaves))]
			switch k := rng.Intn(8); {
			case k < 4: // append
				id := attach(leaf)
				misaligned := rng.Intn(8) == 0
				if misaligned {
					traces[id] = timeseries.Zeros(base, time.Minute, slots+1)
				} else {
					draw(id, slots)
				}
				before := agg.Snapshot()
				_, err := agg.Append(leaf)
				twinErr := refold(twin, leaf)
				if fmt.Sprint(err) != fmt.Sprint(twinErr) {
					t.Fatalf("%s: Append on %s: %v, MarkDirty + Update: %v", ctx, leaf.Name, err, twinErr)
				}
				if err != nil && agg.Snapshot() != before {
					t.Fatalf("%s: a failed Append replaced the snapshot", ctx)
				}
				if !misaligned {
					break
				}
				// Repair the trace. After a failed Append only its kept
				// dirty mark folds the repair in; an Append that met no
				// trace to misalign with succeeded, and the repair is a
				// trace change.
				draw(id, slots)
				if err == nil {
					if err := agg.MarkDirty(leaf); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := agg.Update(); err != nil {
					t.Fatalf("%s: retry after repair: %v", ctx, err)
				}
				if err := refold(twin, leaf); err != nil {
					t.Fatal(err)
				}
			case k == 4 && len(leaf.Instances) > 0: // detach
				leaf.Detach(leaf.Instances[rng.Intn(len(leaf.Instances))])
				if err := refold(agg, leaf); err != nil {
					t.Fatal(err)
				}
				if err := refold(twin, leaf); err != nil {
					t.Fatal(err)
				}
			case k == 5 && len(leaf.Instances) > 0: // trace change
				draw(leaf.Instances[rng.Intn(len(leaf.Instances))], slots)
				if err := refold(agg, leaf); err != nil {
					t.Fatal(err)
				}
				if err := refold(twin, leaf); err != nil {
					t.Fatal(err)
				}
			default: // a trace change left marked, then an append elsewhere
				other := leaves[rng.Intn(len(leaves))]
				if len(other.Instances) > 0 {
					draw(other.Instances[0], slots)
					if err := agg.MarkDirty(other); err != nil {
						t.Fatal(err)
					}
				}
				draw(attach(leaf), slots)
				if _, err := agg.Append(leaf); err != nil {
					t.Fatal(err)
				}
				if err := twin.MarkDirty(other); err != nil {
					t.Fatal(err)
				}
				if err := refold(twin, leaf); err != nil {
					t.Fatal(err)
				}
			}
			want, err := tree.AggregateAll(pf)
			if err != nil {
				t.Fatal(err)
			}
			requireSameEntries(t, agg.Snapshot(), want, ctx)
			requireSameEntries(t, twin.Snapshot(), want, ctx+" (MarkDirty + Update)")
		}
	})
}
