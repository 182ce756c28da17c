// One-pass bottom-up aggregation of the whole power tree.
//
// The fragmentation metrics walk the same tree over and over: SumOfPeaks at
// five levels, per-node peaks per figure, breaker checks per node. Computing each
// node's aggregate independently re-sums every instance trace once per
// ancestor — O(depth × instances × len) for a full-tree sweep. AggregateAll
// instead folds each leaf's instances once (in parallel, one leaf per index)
// and then combines child aggregates bottom-up, touching every instance
// trace exactly once and every node trace a constant number of times:
// O(instances × len + nodes × len) total. The combine is child-recursive —
// a node's own instance traces in attachment order, then each child's
// aggregate in child order — so every per-node result is bit-identical to
// re-summing that node's subtree from scratch, for any worker count.
//
// One primitive, combineEntry, computes every entry — a leaf is the case with
// no children — and one loop, treeIndex.recombine, drives it for both the
// full sweep (every position) and the incremental delta path (see
// incremental.go: only dirty leaves and their root paths).
package powertree

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/timeseries"
)

// aggEntry is one node's share of an Aggregates result.
type aggEntry struct {
	trace timeseries.Series
	peak  float64
	// slot is the index of the first reading equal to peak (-1 when the
	// trace is empty or has no maximum), found by the loop that finds peak.
	slot    int
	started bool
	missing []string
}

// treeIndex is the aggregated tree's layout, recorded by one walk: every
// node's pre-order position, each subtree's extent, and the per-level and
// leaf lists every Aggregates consumer repeats. In pre-order a subtree is
// the contiguous run of positions [p, end[p]), its first child sits at p+1
// and each next sibling at the previous one's end, and every child follows
// its parent — so descending position is a bottom-up order. The index
// describes topology only, so it stays valid across instance churn and
// trace changes.
type treeIndex struct {
	nodes []*Node
	// pos is nodes inverted; end[p] is one past the last position of p's
	// subtree and parent[p] is the parent's position (-1 at the root, even
	// when the aggregation is rooted at an interior node).
	pos    map[*Node]int
	end    []int
	parent []int
	// leafPos lists the leaves' positions in tree order.
	leafPos []int
	leaves  []*Node
	byLevel map[Level][]*Node
}

// buildTreeIndex walks the subtree once to size the layout and once to
// record it.
func buildTreeIndex(root *Node) *treeIndex {
	nodes, leaves := 0, 0
	root.Walk(func(m *Node) {
		nodes++
		if m.IsLeaf() {
			leaves++
		}
	})
	ix := &treeIndex{
		nodes:   make([]*Node, 0, nodes),
		pos:     make(map[*Node]int, nodes),
		end:     make([]int, 0, nodes),
		parent:  make([]int, 0, nodes),
		leafPos: make([]int, 0, leaves),
		leaves:  make([]*Node, 0, leaves),
		byLevel: make(map[Level][]*Node),
	}
	var walk func(m *Node, parent int)
	walk = func(m *Node, parent int) {
		p := len(ix.nodes)
		ix.nodes = append(ix.nodes, m)
		ix.pos[m] = p
		ix.end = append(ix.end, 0)
		ix.parent = append(ix.parent, parent)
		ix.byLevel[m.Level] = append(ix.byLevel[m.Level], m)
		if m.IsLeaf() {
			ix.leafPos = append(ix.leafPos, p)
			ix.leaves = append(ix.leaves, m)
		}
		for _, c := range m.Children {
			walk(c, p)
		}
		ix.end[p] = len(ix.nodes)
	}
	walk(root, -1)
	return ix
}

// recombine is the one combine loop behind AggregateAllParallel and
// Aggregator.Update. It re-folds the leaves at positions leaves (ascending,
// concurrently, one leaf per index; workers ≤ 0 means the package default)
// and then recombines every interior position in queue (ascending; the
// leaves plus all their ancestors; nil means every position) deepest first,
// by descending position, so each child's entry is final before its parent
// reads it. Results are written into entries in place. The error returned
// is the one a serial run would hit first: the lowest-position leaf's, else
// the highest-position interior node's.
func (ix *treeIndex) recombine(entries []*aggEntry, leaves, queue []int, power PowerFn, workers int) error {
	folds, err := parallel.Map(context.Background(), len(leaves), workers, func(i int) (*aggEntry, error) {
		return combineEntry(ix.nodes[leaves[i]], power, nil, nil, 0)
	})
	if err != nil {
		return err
	}
	for i, p := range leaves {
		entries[p] = folds[i]
	}
	n := len(queue)
	if queue == nil {
		n = len(ix.nodes)
	}
	for i := n - 1; i >= 0; i-- {
		p := i
		if queue != nil {
			p = queue[i]
		}
		if ix.end[p] == p+1 {
			continue // a leaf, folded above
		}
		e, err := combineEntry(ix.nodes[p], power, entries, ix.end, p)
		if err != nil {
			return err
		}
		entries[p] = e
	}
	return nil
}

// Aggregates holds the aggregate power trace of every node in a tree,
// computed by one bottom-up pass (AggregateAll) or carried forward
// incrementally (Aggregator.Update). The entries form one slab in the
// tree's pre-order, so a reader holding a position (Nodes, SubtreeEnd and
// the *At accessors) reads a node's entry by index; the *Node accessors
// look the position up first. An Aggregates is a snapshot of the tree and
// traces at computation time; it is immutable and safe for concurrent
// reads.
type Aggregates struct {
	entries []*aggEntry
	index   *treeIndex
}

// combineEntry computes the entry of node m at position p from its own
// instance traces and its children's entries, read from entries at the
// child positions end yields (a leaf reads none, so a fold passes nil), in
// a fixed child-recursive operation order: own instances in attachment
// order, then each child's aggregate in child order, first contribution
// cloned, the rest accumulated in place. Given bit-identical child entries
// it therefore produces a bit-identical parent entry — the invariant the
// delta path relies on. It is the only place instance traces are summed
// into a node trace.
func combineEntry(m *Node, power PowerFn, entries []*aggEntry, end []int, p int) (*aggEntry, error) {
	e := &aggEntry{slot: -1}
	// Interior nodes hosting instances are invalid (Validate rejects them)
	// but are tolerated here: own instances first, then child aggregates.
	for _, id := range m.Instances {
		s, ok := power(id)
		if !ok {
			e.missing = append(e.missing, id)
			continue
		}
		if !e.started {
			e.trace = s.Clone()
			e.started = true
			continue
		}
		if err := e.trace.AddInPlace(s); err != nil {
			return nil, fmt.Errorf("powertree: aggregating %q under %q: %w", id, m.Name, err)
		}
	}
	c := p + 1
	for _, child := range m.Children {
		ce := entries[c]
		c = end[c]
		e.missing = append(e.missing, ce.missing...)
		if !ce.started {
			continue
		}
		if !e.started {
			// Clone: the child's aggregate stays live in the result and must
			// not be mutated by further adds here.
			e.trace = ce.trace.Clone()
			e.started = true
			continue
		}
		if err := e.trace.AddInPlace(ce.trace); err != nil {
			return nil, fmt.Errorf("powertree: combining %q into %q: %w", child.Name, m.Name, err)
		}
	}
	e.findPeak()
	return e, nil
}

// findPeak sets the entry's peak and slot from its trace in one loop: the
// comparisons of Series.Peak, so the peak is bit-identical to it and slot is
// Series.PeakIndex. An entry with no readings keeps peak 0 and slot -1.
func (e *aggEntry) findPeak() {
	if e.started && !e.trace.Empty() {
		e.peak = math.Inf(-1)
		for i, v := range e.trace.Values {
			if v > e.peak {
				e.peak, e.slot = v, i
			}
		}
	}
}

// appendEntry returns the entry of leaf m given old, the entry of m without
// its last instance. combineEntry's fold of m is old's fold plus one last
// add, so a copy of old's trace plus the instance's trace (or, when that
// trace is unknown, old with the instance appended to missing) is
// bit-identical to combineEntry(m), error text included. old stays live in
// its snapshot and is not modified; the peak and slot are found afresh.
func appendEntry(old *aggEntry, m *Node, power PowerFn) (*aggEntry, error) {
	id := m.Instances[len(m.Instances)-1]
	s, ok := power(id)
	if !ok {
		e := *old
		e.missing = append(slices.Clip(old.missing), id)
		return &e, nil
	}
	e := &aggEntry{slot: -1, started: true, missing: old.missing}
	if !old.started {
		e.trace = s.Clone()
	} else {
		e.trace = old.trace.Clone()
		if err := e.trace.AddInPlace(s); err != nil {
			return nil, fmt.Errorf("powertree: aggregating %q under %q: %w", id, m.Name, err)
		}
	}
	e.findPeak()
	return e, nil
}

// AggregateAll aggregates the whole subtree in one bottom-up pass with the
// default worker count (see internal/parallel).
func (n *Node) AggregateAll(power PowerFn) (*Aggregates, error) {
	return n.AggregateAllParallel(power, 0)
}

// AggregateAllParallel is AggregateAll with an explicit worker count (≤ 0
// means the package default). Leaf folds run concurrently, one leaf per
// index; the bottom-up combine is serial, deepest position first. Results
// are bit-identical for any worker count, and the error returned is the one
// the lowest-index leaf would have hit in a serial run.
func (n *Node) AggregateAllParallel(power PowerFn, workers int) (*Aggregates, error) {
	timer := obsAggregateSpan.Start()
	index := buildTreeIndex(n)
	a := &Aggregates{entries: make([]*aggEntry, len(index.nodes)), index: index}
	if err := index.recombine(a.entries, index.leafPos, nil, power, workers); err != nil {
		return nil, err
	}
	// Counted after the leaf fan-out and serial combine complete, so the
	// totals are identical for any worker count.
	obsAggregations.Inc()
	obsNodesAggregated.Add(uint64(len(a.entries)))
	timer.End()
	return a, nil
}

// Leaves returns every leaf of the aggregated tree in tree order, from the
// snapshot's cached walk. The slice is shared with the snapshot and must not
// be mutated.
func (a *Aggregates) Leaves() []*Node { return a.index.leaves }

// NodesAtLevel returns the aggregated tree's nodes at the given level in
// tree order, from the snapshot's cached walk — Node.NodesAtLevel without
// the per-call re-walk and re-allocation. The slice is shared with the
// snapshot and must not be mutated.
func (a *Aggregates) NodesAtLevel(l Level) []*Node { return a.index.byLevel[l] }

// Nodes returns the aggregated tree's nodes in pre-order: a node's index
// in the slice is its position, the argument of the *At accessors. The
// slice is shared with the snapshot and must not be mutated.
func (a *Aggregates) Nodes() []*Node { return a.index.nodes }

// SubtreeEnd returns one past the last position of the subtree at position
// p: the subtree is positions [p, SubtreeEnd(p)), so a pre-order walk skips
// it by jumping there, and a node is a leaf iff SubtreeEnd(p) == p+1.
func (a *Aggregates) SubtreeEnd(p int) int { return a.index.end[p] }

// Position returns the node's position, or -1 when the node is not part of
// the aggregated tree.
func (a *Aggregates) Position(n *Node) int {
	if p, ok := a.index.pos[n]; ok {
		return p
	}
	return -1
}

// at returns the entry at position p, or nil for p = -1.
func (a *Aggregates) at(p int) *aggEntry {
	if p < 0 {
		return nil
	}
	return a.entries[p]
}

// TraceAt returns the aggregate power trace at position p. ok is false
// when the node hosts no traced instances (or p is -1). The returned series
// is owned by the Aggregates and must not be mutated; Clone it before
// in-place arithmetic.
func (a *Aggregates) TraceAt(p int) (timeseries.Series, bool) {
	e := a.at(p)
	if e == nil || !e.started {
		return timeseries.Series{}, false
	}
	return e.trace, true
}

// PeakAt returns the peak of the aggregate power trace at position p, or 0
// when the node hosts no traced instances, its aggregate is zero-length,
// or p is -1.
func (a *Aggregates) PeakAt(p int) float64 {
	if e := a.at(p); e != nil {
		return e.peak
	}
	return 0
}

// PeakSlotAt returns the index of the first reading of the aggregate power
// trace at position p equal to PeakAt — Series.PeakIndex, kept beside the
// peak so readers get both in O(1) — or -1 when the peak has no slot (the
// aggregate is empty, no reading is a maximum, or p is -1).
func (a *Aggregates) PeakSlotAt(p int) int {
	if e := a.at(p); e != nil {
		return e.slot
	}
	return -1
}

// Trace is TraceAt at the node's position: ok is also false for a node
// outside the aggregated tree.
func (a *Aggregates) Trace(n *Node) (timeseries.Series, bool) { return a.TraceAt(a.Position(n)) }

// Peak is PeakAt at the node's position: 0 for a node outside the
// aggregated tree.
func (a *Aggregates) Peak(n *Node) float64 { return a.PeakAt(a.Position(n)) }

// Missing returns the instance IDs under the node whose traces were unknown
// at aggregation time: the node's own instances in attachment order, then
// each child's missing list in child order (pre-order tree order). It is
// nil for a node outside the aggregated tree.
func (a *Aggregates) Missing(n *Node) []string {
	if e := a.at(a.Position(n)); e != nil {
		return e.missing
	}
	return nil
}

// Headroom returns budget − peak aggregate power for the node. Negative
// headroom means the node is over-committed.
func (a *Aggregates) Headroom(n *Node) float64 {
	return n.Budget - a.Peak(n)
}

// SumOfPeaks computes Σ over nodes at the given level of each node's peak
// aggregate power — the paper's fragmentation indicator #1 (§2.2) — from the
// precomputed aggregates. Peaks are summed serially in tree order, matching
// Node.SumOfPeaks bit-for-bit.
func (a *Aggregates) SumOfPeaks(level Level) float64 {
	var total float64
	for p, m := range a.index.nodes {
		if m.Level == level {
			total += a.entries[p].peak
		}
	}
	return total
}

// CheckBreakers scans every aggregated node's trace and reports episodes
// where the draw exceeded the node's budget for at least sustain, sorted by
// node name then start index — the scan behind Node.CheckBreakers (§2.2).
func (a *Aggregates) CheckBreakers(sustain time.Duration) []BreakerTrip {
	return a.CheckBreakersWithBudgets(sustain, nil)
}

// CheckBreakersWithBudgets is CheckBreakers with each node's budget read
// through the overlay, so a tripped feed can be checked against these
// aggregates without writing the tree. Aggregates do not depend on budgets:
// one Aggregates answers every overlay.
func (a *Aggregates) CheckBreakersWithBudgets(sustain time.Duration, budget BudgetOverlay) []BreakerTrip {
	var trips []BreakerTrip
	for p, m := range a.index.nodes {
		e := a.entries[p]
		if !e.started || e.trace.Empty() {
			continue
		}
		limit := m.BudgetUnder(budget)
		if !(e.peak > limit) {
			continue // no reading exceeds the peak
		}
		agg := e.trace
		start, over := -1, 0.0
		flush := func(end int) {
			if start < 0 {
				return
			}
			dur := time.Duration(end-start) * agg.Step
			if dur >= sustain {
				trips = append(trips, BreakerTrip{Node: m.Name, Level: m.Level, Start: start, Duration: dur, PeakOverdraw: over})
			}
			start, over = -1, 0
		}
		for i, v := range agg.Values {
			if v > limit {
				if start < 0 {
					start = i
				}
				if v-limit > over {
					over = v - limit
				}
			} else {
				flush(i)
			}
		}
		flush(len(agg.Values))
	}
	sort.Slice(trips, func(i, j int) bool {
		if trips[i].Node != trips[j].Node {
			return trips[i].Node < trips[j].Node
		}
		return trips[i].Start < trips[j].Start
	})
	obsBreakerChecks.Inc()
	obsBreakerTrips.Add(uint64(len(trips)))
	return trips
}
