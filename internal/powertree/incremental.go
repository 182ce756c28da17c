// Incremental (delta) aggregation: O(changed) per tick instead of O(fleet).
//
// A full AggregateAll touches every instance trace and every node, which is
// the wall at million-instance scale when a tick changes only a handful of
// leaves (an admission, a retirement, a remap swap). The Aggregator keeps
// the last Aggregates snapshot and the positions of the dirty leaves; Update
// copies the snapshot's pre-order entry slab (a pointer slice), re-folds only
// the dirty leaves (fanned out via internal/parallel) and re-combines only
// their root paths, deepest first, through the loop AggregateAll runs over
// every position. Its cost is that copy plus O((leaf residents + path) ·
// len) float work, whatever the size of the clean rest of the tree.
//
// Determinism contract: clean entries are reused by pointer, dirty leaves
// and their ancestors are recomputed by combineEntry — the exact operation
// order AggregateAll uses. A node's entry is a pure function of its
// subtree's instance traces under that order, so reusing a clean child's
// entry and recomputing a dirty one compose into bit-identical per-node
// results versus a fresh AggregateAll, at any worker count (pinned by
// TestAggregatorUpdateMatchesFresh). Append, for an instance attached as a
// leaf's last, keeps the contract without the re-fold: the leaf's fold is
// its previous fold plus one last add, so only that add is made (pinned by
// FuzzAggregatorAppendMatchesFresh).
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
	"slices"
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
// either the old or the new snapshot, never a partial one). Every snapshot
// shares the first one's tree layout; an Update writes a new copy of the
// entry slab at the dirty leaves' root paths only.
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
	// dirty lists, once each and unordered, the positions of the leaves
	// whose instances or traces changed since snap was computed; marked
	// flags them by position.
	dirty  []int  //smoothop:guardedby mu
	marked []bool //smoothop:guardedby mu
	// queue is Update's reused buffer of the positions it recombines.
	queue []int //smoothop:guardedby mu
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
		tree:   tree,
		power:  power,
		snap:   snap,
		marked: make([]bool, len(snap.entries)),
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
		g.mark(g.snap.Position(leaf))
	}
	return nil
}

// mark adds the leaf at position p to the dirty set.
//
// smoothop:locked mu
func (g *Aggregator) mark(p int) {
	if !g.marked[p] {
		g.marked[p] = true
		g.dirty = append(g.dirty, p)
	}
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
	if g.snap.Position(leaf) < 0 {
		return fmt.Errorf("%w: %q", ErrForeignLeaf, leaf.Name)
	}
	return nil
}

// Update folds all pending dirty marks into a new snapshot and returns it.
// With no pending marks it returns the current snapshot unchanged (a no-op:
// no folds, no new allocations). Dirty-leaf re-folds fan out one leaf per
// index with the default worker count; dirty ancestors are re-combined
// serially, deepest first. Every per-node result is bit-identical to a fresh
// AggregateAll over the same tree and traces, for any worker count. On error
// the snapshot and dirty set are left unchanged, so the Update can be
// retried.
func (g *Aggregator) Update() (*Aggregates, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.update()
}

// update is Update under the lock.
//
// smoothop:locked mu
func (g *Aggregator) update() (*Aggregates, error) {
	if len(g.dirty) == 0 {
		obsDeltaNoops.Inc()
		return g.snap, nil
	}

	timer := obsDeltaSpan.Start()
	old := g.snap
	ix := old.index
	// Tree order, so the fold fan-out and its first error are deterministic.
	slices.Sort(g.dirty)

	// A node must be recombined iff a leaf under it is dirty: exactly the
	// dirty leaves plus their ancestors. Each leaf's parent walk stops at the
	// first ancestor already queued, which is one at or before the previous
	// dirty leaf: a subtree is a contiguous run of positions, so an ancestor
	// of this leaf holds the previous one iff it does not come after it.
	queue, prev := g.queue[:0], -1
	for _, p := range g.dirty {
		queue = append(queue, p)
		for q := ix.parent[p]; q > prev; q = ix.parent[q] {
			queue = append(queue, q)
		}
		prev = p
	}
	slices.Sort(queue)
	g.queue = queue

	// Clean entries are shared with the old snapshot by pointer: entries are
	// immutable after construction, so sharing is safe for readers of both.
	entries := slices.Clone(old.entries)
	if err := ix.recombine(entries, g.dirty, queue, g.power, 0); err != nil {
		// Keep the dirty set: the caller can fix the traces and retry.
		return nil, err
	}

	snap := &Aggregates{entries: entries, index: ix}
	g.snap = snap
	for _, p := range g.dirty {
		g.marked[p] = false
	}
	dirtyLeaves := len(g.dirty)
	g.dirty = g.dirty[:0]

	// Counted after the fan-out and serial recombine complete, outside any
	// parallel closure, so totals are replay-deterministic at any worker
	// count.
	obsDeltaUpdates.Inc()
	obsDeltaDirtyLeaves.Add(uint64(dirtyLeaves))
	obsDeltaNodesRecombined.Add(uint64(len(queue)))
	obsDeltaLastDirty.Set(float64(dirtyLeaves))
	timer.End()
	return snap, nil
}

// Append folds in the instance just attached to leaf as its last one and
// returns the new snapshot: MarkDirty(leaf) + Update() in every bit, without
// re-folding the leaf. The leaf's new entry is its snapshot entry plus the
// instance's trace, the last add of the leaf's fold (see appendEntry), and
// only its ancestors are recombined. The caller must not have changed the
// leaf otherwise since the snapshot; when leaves are already marked dirty,
// Append is MarkDirty(leaf) + Update(). On error the snapshot is unchanged
// and the leaf is left marked dirty, as a failed MarkDirty + Update leaves
// it, so a later Update retries the fold.
func (g *Aggregator) Append(leaf *Node) (*Aggregates, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.checkLeaf(leaf); err != nil {
		return nil, err
	}
	old := g.snap
	ix := old.index
	p := old.Position(leaf)
	if len(g.dirty) > 0 || len(leaf.Instances) == 0 {
		g.mark(p)
		return g.update()
	}

	timer := obsDeltaSpan.Start()
	e, err := appendEntry(old.entries[p], leaf, g.power)
	if err != nil {
		g.mark(p)
		return nil, err
	}
	// The root path, ascending, as recombine takes it.
	queue := g.queue[:0]
	for q := ix.parent[p]; q >= 0; q = ix.parent[q] {
		queue = append(queue, q)
	}
	slices.Reverse(queue)
	g.queue = queue
	entries := slices.Clone(old.entries)
	entries[p] = e
	if err := ix.recombine(entries, nil, queue, g.power, 0); err != nil {
		g.mark(p)
		return nil, err
	}
	g.snap = &Aggregates{entries: entries, index: ix}

	obsDeltaUpdates.Inc()
	obsDeltaDirtyLeaves.Inc()
	obsDeltaNodesRecombined.Add(uint64(len(queue) + 1))
	obsDeltaLastDirty.Set(1)
	timer.End()
	return g.snap, nil
}
