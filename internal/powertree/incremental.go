// Incremental (delta) aggregation: O(changed) per tick instead of O(fleet).
//
// A full AggregateAll touches every instance trace and every node, which is
// the wall at million-instance scale when a tick changes only a handful of
// leaves (an admission, a retirement, a remap swap). The Aggregator keeps
// the last Aggregates snapshot and a dirty set of leaves; Update re-folds
// only the dirty leaves (fanned out via internal/parallel) and re-combines
// only their root paths, reusing the cached entries of every clean subtree.
//
// Determinism contract: clean entries are reused by pointer, dirty leaves
// and their ancestors are recomputed by combineEntry — the exact operation
// order AggregateAll uses. A node's entry is a pure function of its subtree's instance traces under that
// order, so reusing a clean child's entry and recomputing a dirty one
// compose into bit-identical per-node results versus a fresh AggregateAll,
// at any worker count (pinned by TestAggregatorUpdateMatchesFresh).
//
// Staleness contract: the dirty set must cover every leaf whose instance
// set or traces changed since the last Update. A trace change the caller
// does not mark is silently stale — the Aggregator cannot observe PowerFn
// mutations. The topology (children) must not change under an Aggregator;
// build a new one instead.
package powertree

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by Aggregator.MarkDirty.
var (
	// ErrNotALeaf reports a dirty mark aimed at an interior node; only
	// leaves host instances, so only leaves can be re-folded.
	ErrNotALeaf = errors.New("powertree: dirty node is not a leaf")
	// ErrForeignLeaf reports a dirty mark for a node outside the
	// aggregated tree.
	ErrForeignLeaf = errors.New("powertree: dirty leaf is not part of the aggregated tree")
)

// Aggregator maintains an Aggregates snapshot of one tree incrementally.
// Construct with NewAggregator, mark changed leaves with MarkDirty, and call
// Update to fold the changes in. Snapshot returns the current immutable
// Aggregates, safe to read concurrently with a running Update (readers see
// either the old or the new snapshot, never a partial one).
//
// An Aggregator is safe for concurrent use. The tree and PowerFn it wraps
// are not owned by it: callers must order their own tree/trace mutations
// before the MarkDirty+Update that publishes them (the runtime does this
// under its own lock).
type Aggregator struct {
	// tree and power are set at construction and never reassigned.
	tree  *Node
	power PowerFn

	mu sync.RWMutex
	// snap is the current snapshot; Update swaps it wholesale.
	snap *Aggregates //smoothop:guardedby mu
	// dirty is the set of leaves whose instances or traces changed since
	// snap was computed.
	dirty map[*Node]bool //smoothop:guardedby mu
}

// NewAggregator runs one full AggregateAll pass over the tree, with the
// default worker count, and returns an Aggregator carrying that snapshot.
func NewAggregator(tree *Node, power PowerFn) (*Aggregator, error) {
	snap, err := tree.AggregateAll(power)
	if err != nil {
		return nil, err
	}
	obsDeltaRebuilds.Inc()
	return &Aggregator{
		tree:  tree,
		power: power,
		snap:  snap,
		dirty: make(map[*Node]bool),
	}, nil
}

// Snapshot returns the current Aggregates. The snapshot is immutable and
// safe for concurrent reads; it reflects all Updates completed before the
// call and none of the dirty marks not yet folded in by Update.
func (g *Aggregator) Snapshot() *Aggregates {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.snap
}

// MarkDirty records that the given leaves' instance sets or traces changed.
// Marking is idempotent; the change is folded into the snapshot by the next
// Update. Interior nodes are rejected with ErrNotALeaf and nodes outside the
// aggregated tree with ErrForeignLeaf; on error no marks from the call are
// recorded.
func (g *Aggregator) MarkDirty(leaves ...*Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, leaf := range leaves {
		if err := g.checkLeaf(leaf); err != nil {
			return err
		}
	}
	for _, leaf := range leaves {
		g.dirty[leaf] = true
	}
	return nil
}

// checkLeaf validates one dirty-mark target against the snapshot's index.
//
// smoothop:locked mu
func (g *Aggregator) checkLeaf(leaf *Node) error {
	if leaf == nil {
		return ErrForeignLeaf
	}
	if !leaf.IsLeaf() {
		return fmt.Errorf("%w: %q (%s)", ErrNotALeaf, leaf.Name, leaf.Level)
	}
	if !g.snap.index.leafSet[leaf] {
		return fmt.Errorf("%w: %q", ErrForeignLeaf, leaf.Name)
	}
	return nil
}

// Update folds all pending dirty marks into a new snapshot and returns it.
// With no pending marks it returns the current snapshot unchanged (a no-op:
// no folds, no new allocations). Dirty-leaf re-folds fan out one leaf per
// index with the default worker count; dirty ancestors are re-combined
// serially in tree order. Every per-node result is bit-identical to a fresh
// AggregateAll over the same tree and traces, for any worker count. On error
// the snapshot and dirty set are left unchanged, so the Update can be
// retried.
func (g *Aggregator) Update() (*Aggregates, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	if len(g.dirty) == 0 {
		obsDeltaNoops.Inc()
		return g.snap, nil
	}

	timer := obsDeltaSpan.Start()
	old := g.snap
	// Collect the dirty leaves in tree order from the cached index — the
	// dirty map itself is never ranged over, so worker fan-out and fold
	// order stay deterministic.
	dirtyLeaves := make([]*Node, 0, len(g.dirty))
	for _, leaf := range old.index.leaves {
		if g.dirty[leaf] {
			dirtyLeaves = append(dirtyLeaves, leaf)
		}
	}

	folds, err := foldLeaves(dirtyLeaves, g.power, 0)
	if err != nil {
		// Keep the dirty set: the caller can fix the traces and retry.
		return nil, err
	}

	// A node must be recombined iff any leaf under it is dirty: exactly the
	// dirty leaves plus their ancestors. Walk each leaf's parent chain,
	// stopping at the first ancestor already marked (its own chain above is
	// already covered).
	needs := make(map[*Node]bool, 2*len(dirtyLeaves))
	for _, leaf := range dirtyLeaves {
		for m := leaf; m != nil && !needs[m]; m = m.Parent() {
			needs[m] = true
		}
	}

	entries := make(map[*Node]*aggEntry, len(old.entries))
	leafIdx := 0
	var build func(m *Node) error
	build = func(m *Node) error {
		if !needs[m] {
			// Clean subtree: share the old entries wholesale. Entries are
			// immutable after construction, so sharing is safe for readers
			// of both snapshots.
			m.Walk(func(c *Node) { entries[c] = old.entries[c] })
			return nil
		}
		if m.IsLeaf() {
			// build visits dirty leaves in pre-order = tree order, the order
			// dirtyLeaves (and so folds) was collected in.
			entries[m] = folds[leafIdx]
			leafIdx++
			return nil
		}
		for _, c := range m.Children {
			if err := build(c); err != nil {
				return err
			}
		}
		e, err := combineEntry(m, g.power, func(c *Node) *aggEntry { return entries[c] })
		if err != nil {
			return err
		}
		entries[m] = e
		return nil
	}
	if err := build(g.tree); err != nil {
		return nil, err
	}

	snap := &Aggregates{root: g.tree, entries: entries, index: old.index}
	g.snap = snap
	g.dirty = make(map[*Node]bool)

	// Counted after the fan-out and serial recombine complete, outside any
	// parallel closure, so totals are replay-deterministic at any worker
	// count.
	obsDeltaUpdates.Inc()
	obsDeltaDirtyLeaves.Add(uint64(len(dirtyLeaves)))
	obsDeltaNodesRecombined.Add(uint64(len(needs)))
	obsDeltaLastDirty.Set(float64(len(dirtyLeaves)))
	timer.End()
	return snap, nil
}
