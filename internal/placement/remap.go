package placement

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/parallel"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Swap records one accepted remapping swap.
type Swap struct {
	// InstanceA moved from NodeA to NodeB; InstanceB the reverse.
	InstanceA, InstanceB string
	NodeA, NodeB         string
	// GainA and GainB are the differential-score improvements at each node.
	GainA, GainB float64
}

// RemapConfig tunes incremental remapping (§3.6), which rebalances the leaf
// (RPP) nodes as the paper does, searching every other leaf for a partner.
type RemapConfig struct {
	// MaxSwaps bounds the number of accepted swaps; 0 means 32. Negative is
	// rejected with ErrBadMaxSwaps.
	MaxSwaps int
	// Policy supplies the demand model of the placer Remap builds; the
	// objective stays the paper's differential asynchrony (§3.6) whatever
	// Kind says. With Policy.Demands set, a swap is accepted only if both
	// affected subtrees stay within every capacity dimension they declare
	// after the exchange (powertree.Usage.Fits). The zero value is the
	// power-only path.
	Policy PolicyConfig
}

// ErrBadMaxSwaps rejects a negative RemapConfig.MaxSwaps, following the
// core.RuntimeConfig pattern: zero means the default, negative is a caller
// bug and is rejected loudly instead of silently coerced.
var ErrBadMaxSwaps = errors.New("placement: MaxSwaps must not be negative")

// Remap incrementally improves an existing placement in response to
// workload drift (§3.6): it builds a placer over the tree (NewOnline, with
// cfg.Policy's demand model) and runs Online.Remap with no score floor, on
// one worker.
func Remap(tree *powertree.Node, traces TraceFn, cfg RemapConfig) ([]Swap, error) {
	if cfg.MaxSwaps < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadMaxSwaps, cfg.MaxSwaps)
	}
	if len(tree.NodesAtLevel(powertree.RPP)) < 2 {
		return nil, nil
	}
	o, err := NewOnline(tree, traces, PolicyConfig{Demands: cfg.Policy.Demands})
	if err != nil {
		return nil, err
	}
	_, _, swaps, err := o.Remap(math.Inf(1), 1, cfg.MaxSwaps)
	return swaps, err
}

// Remap is the §3.6 drift monitor and repair, run on the placer's tree. It
// scores every leaf (RPP) from the placer's ledger, as LevelAsynchronyFrom
// does and on as many workers, and returns the worst leaf's name and score
// from before any swap (the lowest name among equal scores; "" and +Inf
// when no leaf hosts two instances). If that score is below floor it
// repairs: it repeatedly finds the leaf with the lowest score (the lowest
// leaf index among equal scores), finds the instance there with the worst
// differential asynchrony score, and swaps it with an instance from another
// leaf if and only if the swap raises the differential scores at both
// leaves and keeps every capacity dimension on both root paths within
// bounds (the placer's recorded demands against its usage ledger). It stops
// when no improving swap exists or maxSwaps (0 means 32; negative is
// ErrBadMaxSwaps) swaps were accepted, and returns them.
//
// Partners are tried by score descending, then leaf index ascending. The
// two leaves of an accepted swap are rescored from their residents' traces.
// The usage ledger is rerolled after each swap, since later swaps are
// checked against it; the aggregate ledger refolds every leaf the swaps
// touched once, before Remap returns (one fold per swap would rebuild the
// ledger's snapshot each time). Either way the placer's ledgers describe
// the repaired tree on return.
func (o *Online) Remap(floor float64, workers, maxSwaps int) (worst string, worstScore float64, swaps []Swap, err error) {
	if maxSwaps < 0 {
		return "", 0, nil, fmt.Errorf("%w: got %d", ErrBadMaxSwaps, maxSwaps)
	}
	if maxSwaps == 0 {
		maxSwaps = 32
	}
	aggs := o.ledger.Snapshot()
	nodes := aggs.NodesAtLevel(powertree.RPP)
	cache := make([]*leafState, len(nodes))
	if err := inRuns(len(nodes), workers, func(lo, hi int) (err error) {
		for i := lo; i < hi && err == nil; i++ {
			cache[i], err = newLeafState(nodes[i], aggs, o.traces)
		}
		return err
	}); err != nil {
		return "", 0, nil, err
	}
	worstScore = math.Inf(1)
	for i, st := range cache {
		if st.s < worstScore || (st.s == worstScore && worst != "" && nodes[i].Name < worst) {
			worst, worstScore = nodes[i].Name, st.s
		}
	}
	if !(worstScore < floor) {
		return worst, worstScore, nil, nil
	}
	if swaps, err = o.repair(nodes, cache, maxSwaps); err != nil {
		return "", 0, nil, err
	}
	return worst, worstScore, swaps, nil
}

// repair is Remap's swap search over the leaves nodes, whose current
// states cache holds; it alone moves the remap counters and span.
func (o *Online) repair(nodes []*powertree.Node, cache []*leafState, maxSwaps int) ([]Swap, error) {
	timer := obsRemapSpan.Start()
	// byScore orders leaves as the partner search tries them.
	byScore := func(a, b int) int {
		switch sa, sb := cache[a].s, cache[b].s; {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return cmp.Compare(a, b)
	}
	// order is every leaf in partner order, kept across iterations: an
	// accepted swap takes its two leaves out and puts them back at their
	// new scores.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, byScore)

	var swaps []Swap
	var moved []*powertree.Node
	var attempted, scored uint64
	for len(swaps) < maxSwaps {
		// 1. Find the most fragmented leaf.
		worstIdx, worstScore := -1, math.Inf(1)
		for i, st := range cache {
			if st.s < worstScore {
				worstScore, worstIdx = st.s, i
			}
		}
		if worstIdx < 0 {
			break
		}
		worst, worstState := nodes[worstIdx], cache[worstIdx]
		wIDs, wTraces := worstState.ids, worstState.trs
		if len(wIDs) < 2 {
			break
		}
		worstState.prepare()

		// 2. Find the instance with the worst differential score there.
		victim, victimDiff := -1, math.Inf(1)
		for i, d := range worstState.cur {
			if d < victimDiff {
				victimDiff, victim = d, i
			}
		}
		if victim < 0 {
			break
		}
		vTrace, vPeak := wTraces[victim], worstState.peak[victim]
		vPeers, vPeersPeak := worstState.peers[victim], worstState.peersPeak[victim]
		nA := len(wTraces) - 1

		// 3. Search partner leaves, best-scoring first, for an improving swap.
		found := false
		for _, ci := range order {
			if ci == worstIdx {
				continue
			}
			partner, candState := nodes[ci], cache[ci]
			pIDs, pTraces := candState.ids, candState.trs
			if len(pIDs) < 1 {
				continue
			}
			candState.prepare()
			nB := len(pTraces) - 1
			for j := range pIDs {
				attempted++
				// The worst leaf's differential after the swap (the partner's
				// instance joins the victim's peers) and the partner leaf's
				// (the victim joins the partner instance's peers) must both
				// rise. Each side's upper bound rejects most pairs from O(1)
				// reads; the rest are scored exactly.
				curA, curB := victimDiff, candState.cur[j]
				if !(score.DifferentialBound(&pTraces[j], candState.peak[j], &vPeers, vPeersPeak, nA) > curA) ||
					!(score.DifferentialBound(&vTrace, vPeak, &candState.peers[j], candState.peersPeak[j], nB) > curB) {
					continue
				}
				scored++
				newA := differential(pTraces[j], vPeers, nA)
				if !(newA > curA) {
					continue
				}
				newB := differential(vTrace, candState.peers[j], nB)
				if !(newB > curB) {
					continue
				}
				if !o.swapFits(worst, partner, o.demandOf[wIDs[victim]], o.demandOf[pIDs[j]]) {
					continue // score improves but a capacity dimension would overflow
				}
				// Accept: "swap it ... if and only if that swap makes the
				// differential asynchrony scores higher at both of the
				// two power nodes involved."
				if !worst.Detach(wIDs[victim]) || !partner.Detach(pIDs[j]) {
					return nil, fmt.Errorf("placement: swap bookkeeping failed")
				}
				if err := worst.Attach(pIDs[j]); err != nil {
					return nil, err
				}
				if err := partner.Attach(wIDs[victim]); err != nil {
					return nil, err
				}
				o.leafOf[wIDs[victim]], o.leafOf[pIDs[j]] = partner, worst
				if err := o.usage.Reroll(o.recordedDemand, worst, partner); err != nil {
					return nil, err
				}
				moved = append(moved, worst, partner)
				swaps = append(swaps, Swap{
					InstanceA: wIDs[victim], InstanceB: pIDs[j],
					NodeA: worst.Name, NodeB: partner.Name,
					GainA: newA - curA, GainB: newB - curB,
				})
				// Only the two leaves touched by the swap changed: they are
				// rescored and put back in order; every other cached state
				// and its place in order stay valid.
				for _, i := range [2]int{worstIdx, ci} {
					at := slices.Index(order, i)
					order = slices.Delete(order, at, at+1)
					var err error
					if cache[i], err = newLeafState(nodes[i], nil, o.traces); err != nil {
						return nil, err
					}
				}
				for _, i := range [2]int{worstIdx, ci} {
					at, _ := slices.BinarySearchFunc(order, i, byScore)
					order = slices.Insert(order, at, i)
				}
				found = true
				break
			}
			if found {
				break
			}
		}
		if !found {
			break
		}
	}
	if len(moved) > 0 {
		if err := o.refold(moved...); err != nil {
			return nil, err
		}
	}
	obsRemaps.Inc()
	obsSwapsAttempted.Add(attempted)
	obsPairsScored.Add(scored)
	obsSwapsApplied.Add(uint64(len(swaps)))
	timer.End()
	return swaps, nil
}

// leafState is a leaf's cached view for the swap search: its residents' IDs
// and traces, their sum and its asynchrony score, then, once prepare has
// run, per resident j its trace's peak slot, the sum of its peers (the
// leaf's other residents), that sum's peak slot, and j's current
// differential against it.
type leafState struct {
	ids []string
	trs []timeseries.Series
	sum timeseries.Series
	s   float64

	prepared  bool
	peak      []int
	peers     []timeseries.Series
	peersPeak []int
	cur       []float64
}

// prepare fills the per-resident state in one pass. Resident j's peer sum
// is the leaf's sum minus t_j, in one backing array for the leaf. On the
// scoring grid (timeseries.Snap) the runtime's traces lie on, every sum is
// exact, so this is Sum over the peers bit for bit; off-grid traces get the
// rounded difference. A trace misaligned with the sum gets the zero
// Series, against which nothing scores.
func (st *leafState) prepare() {
	if st.prepared {
		return
	}
	st.prepared = true
	m, n := len(st.trs), st.sum.Len()
	st.peak, st.peers, st.peersPeak, st.cur = make([]int, m), make([]timeseries.Series, m), make([]int, m), make([]float64, m)
	buf := make([]float64, m*n)
	for j, tr := range st.trs {
		if tr.Len() == n && tr.Step == st.sum.Step {
			peers := buf[j*n : (j+1)*n : (j+1)*n]
			for t, v := range st.sum.Values {
				peers[t] = v - tr.Values[t]
			}
			st.peers[j] = timeseries.New(st.sum.Start, st.sum.Step, peers)
		}
		st.peak[j], st.peersPeak[j] = tr.PeakIndex(), st.peers[j].PeakIndex()
		st.cur[j] = differential(tr, st.peers[j], m-1)
	}
}

// differential is the differential of a candidate trace against the sum of
// n peers: +Inf with no peers, −Inf when the score is undefined.
func differential(cand, sum timeseries.Series, n int) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	d, err := score.DifferentialFromSum(cand, sum, n)
	if err != nil {
		return math.Inf(-1)
	}
	return d
}

// swapFits reports whether exchanging an instance with demand da (leaving
// leaf a for b) against one with demand db (leaving b for a) keeps every
// capacity dimension within bounds on both root paths. Ancestors both
// leaves share see no net change and are skipped.
func (o *Online) swapFits(a, b *powertree.Node, da, db powertree.ResourceVector) bool {
	if len(da) == 0 && len(db) == 0 {
		return true
	}
	onA := make(map[*powertree.Node]bool)
	for n := a; n != nil; n = n.Parent() {
		onA[n] = true
	}
	shared := b
	for !onA[shared] {
		shared = shared.Parent()
	}
	pathFits := func(n *powertree.Node, in, out powertree.ResourceVector) bool {
		for ; n != shared; n = n.Parent() {
			if !o.usage.Fits(n, in, out) {
				return false
			}
		}
		return true
	}
	return pathFits(a, db, da) && pathFits(b, da, db)
}

// LevelAsynchrony returns the asynchrony score of every node at a level
// that hosts at least two instances, keyed by node name — the drift monitor
// of §3.6 watches these (together with sum-of-peaks) to decide when
// remapping is worthwhile. It is AggregateAll, then a serial
// LevelAsynchronyFrom.
func LevelAsynchrony(tree *powertree.Node, level powertree.Level, traces TraceFn) (map[string]float64, error) {
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		return nil, err
	}
	return LevelAsynchronyFrom(aggs, level, traces, 1)
}

// LevelAsynchronyFrom scores from the caller's aggs of the tree over the
// same traces: each denominator is read from aggs, traces supply only the
// residents' peaks (newLeafState). Leaf scores are bit-identical to
// score.Asynchrony over the residents (a leaf folds in attachment order,
// Sum's order); an interior node sums child aggregates, so its last bits
// may differ. The nodes are scored in runs (inRuns; traces must be safe for
// concurrent use), so the result and the error — the first failing node's
// in level order — are the same at any worker count.
func LevelAsynchronyFrom(aggs *powertree.Aggregates, level powertree.Level, traces TraceFn, workers int) (map[string]float64, error) {
	nodes := aggs.NodesAtLevel(level)
	scores := make([]float64, len(nodes))
	hosts := make([]bool, len(nodes))
	err := inRuns(len(nodes), workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if nodes[i].InstanceCount() < 2 {
				continue
			}
			st, err := newLeafState(nodes[i], aggs, traces)
			if err != nil {
				return err
			}
			scores[i], hosts[i] = st.s, true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for i, n := range nodes {
		if hosts[i] {
			out[n.Name] = scores[i]
		}
	}
	return out, nil
}

// inRuns calls run(lo, hi) on contiguous runs of [0, n), one per worker
// (internal/parallel). Each run writes only its own indices and the error
// is the lowest failing run's, so a run-split loop that stops at its first
// failure behaves as a serial one at any worker count.
func inRuns(n, workers int, run func(lo, hi int) error) error {
	runs := min(parallel.Workers(workers), n)
	return parallel.ForEach(context.Background(), runs, runs, func(r int) error {
		return run(r*n/runs, (r+1)*n/runs)
	})
}

// newLeafState resolves the traces of n's residents and scores n against
// the peak of their sum (score.AsynchronyFromSum): its aggregate in aggs
// (bit-identical to score.Asynchrony at a leaf) or, with aggs nil because
// the residents changed since, timeseries.Sum over them. Fewer than two
// residents score +Inf.
func newLeafState(n *powertree.Node, aggs *powertree.Aggregates, traces TraceFn) (*leafState, error) {
	st := &leafState{ids: n.AllInstances(), s: math.Inf(1)}
	st.trs = make([]timeseries.Series, len(st.ids))
	for j, id := range st.ids {
		tr, ok := traces(id)
		if !ok {
			return nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, id)
		}
		st.trs[j] = tr
	}
	if len(st.trs) < 2 {
		return st, nil
	}
	var err error
	if aggs == nil {
		st.sum, err = timeseries.Sum(st.trs...)
	} else {
		st.sum, _ = aggs.Trace(n) // no entry: the empty sum's zero peak fails below
	}
	if err == nil {
		st.s, err = score.AsynchronyFromSum(st.sum.Peak(), st.trs...)
	}
	if err != nil {
		return nil, fmt.Errorf("placement: scoring node %q: %w", n.Name, err)
	}
	return st, nil
}
