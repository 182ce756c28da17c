package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

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
// cfg.Policy's demand model), scores the leaves from its ledger
// (LevelAsynchronyFrom) and runs Online.Remap.
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
	scores, err := LevelAsynchronyFrom(o.Aggregates(), powertree.RPP, traces)
	if err != nil {
		return nil, err
	}
	return o.Remap(scores, cfg.MaxSwaps)
}

// Remap is the §3.6 repair run on the placer's tree. It repeatedly finds
// the leaf with the lowest asynchrony score, finds the instance there with
// the worst differential asynchrony score, and swaps it with an instance
// from another leaf if and only if the swap raises the differential scores
// at both leaves and keeps every capacity dimension on both root paths
// within bounds (the placer's recorded demands against its usage ledger).
// It stops when no improving swap exists or maxSwaps (0 means 32; negative
// is ErrBadMaxSwaps) swaps were accepted, and returns them.
//
// scores seeds the leaves' current scores, as LevelAsynchronyFrom returns
// them from the placer's Aggregates; a leaf missing from scores has fewer
// than two residents and reads as +Inf. The two leaves of an accepted swap
// are rescored from their residents' traces. The usage ledger is rerolled
// after each swap, since later swaps are checked against it; the aggregate
// ledger refolds every leaf the swaps touched once, before Remap returns
// (one fold per swap would rebuild the ledger's snapshot each time). Either
// way the placer's ledgers describe the repaired tree on return.
func (o *Online) Remap(scores map[string]float64, maxSwaps int) ([]Swap, error) {
	if maxSwaps < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadMaxSwaps, maxSwaps)
	}
	timer := obsRemapSpan.Start()
	if maxSwaps == 0 {
		maxSwaps = 32
	}
	nodes := o.tree.NodesAtLevel(powertree.RPP)

	// Per-node cache of instance IDs, resolved traces, asynchrony score and,
	// per resident, the sum of the node's other traces (peers) and its
	// current differential against them (cur), filled together on first use.
	// Placements only change at the two nodes of an accepted swap, so only
	// those two entries are ever invalidated, and marked swapped: scores no
	// longer describes them.
	type nodeState struct {
		ids   []string
		trs   []timeseries.Series
		s     float64
		peers []timeseries.Series
		cur   []float64
		known []bool
	}
	cache := make([]*nodeState, len(nodes))
	swapped := make([]bool, len(nodes))
	stateOf := func(i int) (*nodeState, error) {
		if cache[i] != nil {
			return cache[i], nil
		}
		n := nodes[i]
		ids := n.AllInstances()
		trs := make([]timeseries.Series, len(ids))
		for j, id := range ids {
			tr, ok := o.traces(id)
			if !ok {
				return nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, id)
			}
			trs[j] = tr
		}
		st := &nodeState{ids: ids, trs: trs, s: math.Inf(1)} // < 2 residents: nothing to defragment
		st.peers, st.cur, st.known = make([]timeseries.Series, len(ids)), make([]float64, len(ids)), make([]bool, len(ids))
		if s, ok := scores[n.Name]; ok && !swapped[i] {
			st.s = s
		} else if swapped[i] && len(trs) >= 2 {
			s, err := score.Asynchrony(trs...)
			if err != nil {
				return nil, err
			}
			st.s = s
		}
		cache[i] = st
		return st, nil
	}

	// diff is the differential of a candidate trace against the sum of n
	// peers: +Inf with no peers, −Inf when the score is undefined.
	diff := func(cand, sum timeseries.Series, n int) float64 {
		if n == 0 {
			return math.Inf(1)
		}
		d, err := score.DifferentialFromSum(cand, sum, n)
		if err != nil {
			return math.Inf(-1)
		}
		return d
	}
	// resident returns resident j's peers sum and current differential at
	// its node, computed once per cached state.
	resident := func(st *nodeState, j int) (timeseries.Series, float64) {
		if !st.known[j] {
			st.peers[j] = leaveOneOut(st.trs, j)
			st.cur[j], st.known[j] = diff(st.trs[j], st.peers[j], len(st.trs)-1), true
		}
		return st.peers[j], st.cur[j]
	}

	var swaps []Swap
	var moved []*powertree.Node
	var attempted uint64
	for len(swaps) < maxSwaps {
		// 1. Find the most fragmented node. This also caches every node's
		// state, so the steps below read the cache directly.
		worstIdx, worstScore := -1, math.Inf(1)
		for i := range nodes {
			st, err := stateOf(i)
			if err != nil {
				return nil, err
			}
			if st.s < worstScore {
				worstScore, worstIdx = st.s, i
			}
		}
		if worstIdx < 0 || math.IsInf(worstScore, 1) {
			break
		}
		worst, worstState := nodes[worstIdx], cache[worstIdx]
		wIDs, wTraces := worstState.ids, worstState.trs
		if len(wIDs) < 2 {
			break
		}

		// 2. Find the instance with the worst differential score there.
		victim, victimDiff := -1, math.Inf(1)
		for i := range wIDs {
			if _, d := resident(worstState, i); d < victimDiff {
				victimDiff, victim = d, i
			}
		}
		if victim < 0 {
			break
		}
		victimPeers, _ := resident(worstState, victim)

		// 3. Search partner nodes, best-scoring first, for an improving swap.
		type scored struct {
			idx int
			s   float64
		}
		order := make([]scored, 0, len(nodes))
		for i := range nodes {
			if i == worstIdx {
				continue
			}
			order = append(order, scored{i, cache[i].s})
		}
		sort.Slice(order, func(a, b int) bool { return order[a].s > order[b].s })

		found := false
		for _, cand := range order {
			partner, candState := nodes[cand.idx], cache[cand.idx]
			pIDs, pTraces := candState.ids, candState.trs
			if len(pIDs) < 1 {
				continue
			}
			for j := range pIDs {
				attempted++
				// Post-swap differential at the worst node: the partner's
				// instance joins the victim's peers. A pair that fails here
				// is rejected whatever the partner side says.
				curA := victimDiff
				newA := diff(pTraces[j], victimPeers, len(wTraces)-1)
				if !(newA > curA) {
					continue
				}
				// Partner side, current and post-swap (the victim joins the
				// partner's peers), both against the same leave-one-out sum.
				pPeers, curB := resident(candState, j)
				newB := diff(wTraces[victim], pPeers, len(pTraces)-1)
				if newB > curB {
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
					// Only the two nodes touched by the swap changed;
					// every other cached trace set and score stays valid.
					cache[worstIdx], cache[cand.idx] = nil, nil
					swapped[worstIdx], swapped[cand.idx] = true, true
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
	if len(moved) > 0 {
		if err := o.refold(moved...); err != nil {
			return nil, err
		}
	}
	obsRemaps.Inc()
	obsSwapsAttempted.Add(attempted)
	obsSwapsApplied.Add(uint64(len(swaps)))
	timer.End()
	return swaps, nil
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

// leaveOneOut sums trs except trs[skip], in order, into a buffer of its own.
// Traces that will not sum yield the zero Series, against which nothing
// scores.
func leaveOneOut(trs []timeseries.Series, skip int) timeseries.Series {
	var sum timeseries.Series
	started := false
	for j, tr := range trs {
		switch {
		case j == skip:
		case !started:
			sum, started = timeseries.Series{Start: tr.Start, Step: tr.Step, Values: append([]float64(nil), tr.Values...)}, true
		case sum.AddInPlace(tr) != nil:
			return timeseries.Series{}
		}
	}
	return sum
}

// LevelAsynchrony returns the asynchrony score of every node at a level
// that hosts at least two instances, keyed by node name — the drift monitor
// of §3.6 watches these (together with sum-of-peaks) to decide when
// remapping is worthwhile. It is AggregateAll, then LevelAsynchronyFrom.
func LevelAsynchrony(tree *powertree.Node, level powertree.Level, traces TraceFn) (map[string]float64, error) {
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		return nil, err
	}
	return LevelAsynchronyFrom(aggs, level, traces)
}

// LevelAsynchronyFrom scores from the caller's aggs of the tree over the
// same traces: each denominator is read from aggs, traces supply only the
// residents' peaks. Leaf scores are bit-identical to score.Asynchrony over
// the residents (a leaf folds in attachment order, Sum's order); an
// interior node sums child aggregates, so its last bits may differ.
func LevelAsynchronyFrom(aggs *powertree.Aggregates, level powertree.Level, traces TraceFn) (map[string]float64, error) {
	out := make(map[string]float64)
	var trs []timeseries.Series
	for _, n := range aggs.NodesAtLevel(level) {
		ids := n.AllInstances()
		if len(ids) < 2 {
			continue
		}
		trs = trs[:0]
		for _, id := range ids {
			tr, ok := traces(id)
			if !ok {
				return nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, id)
			}
			trs = append(trs, tr)
		}
		s, err := score.AsynchronyFromSum(aggs.Peak(n), trs...)
		if err != nil {
			return nil, fmt.Errorf("placement: scoring node %q: %w", n.Name, err)
		}
		out[n.Name] = s
	}
	return out, nil
}
