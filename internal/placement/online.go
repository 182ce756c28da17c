package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// This file implements online (arrival-stream) placement. The batch placers
// in placement.go populate an empty tree from a full fleet snapshot;
// production fleets churn, so the online placer admits and retires one
// instance at a time against a live, already-populated tree. Feasibility is
// breaker-driven: an arriving instance may land on a leaf only if the leaf
// and every ancestor stay within budget once the instance's I-trace is added
// to their aggregates. Which feasible leaf wins is the policy's choice; the
// asynchrony-aware policy reuses the differential score of §3.6 so arrivals
// keep smoothing node aggregates instead of re-fragmenting them.

// Errors returned by online placement.
var (
	ErrNoCapacity      = errors.New("placement: no leaf can admit the instance without a breaker violation or a declared capacity overflow")
	ErrAlreadyAdmitted = errors.New("placement: instance already admitted")
	ErrUnknownInstance = errors.New("placement: instance not admitted")
)

// OnlineCandidate is one feasible leaf offered to an online policy. The
// placer builds candidates, and they are valid only until its next Admit.
// A candidate carries what the ledger already holds for free (the leaf's
// aggregate and its peak's slot); the numbers that take a pass
// over the aggregate (PostPeak, Headroom, Residuals) are computed on first
// use and remembered, so a policy pays only for what it reads. Call them
// on the slice element (cands[i].Headroom()), not on a copy, for the memo
// to stick.
type OnlineCandidate struct {
	// Leaf is the candidate host node.
	Leaf *powertree.Node
	// Aggregate is the sum, in attachment order, of the traces of the Count
	// instances currently on the leaf (the zero Series when it is empty):
	// what score.DifferentialFromSum scores an arrival against. It is owned
	// by the placer's ledger and must not be mutated.
	Aggregate timeseries.Series
	Count     int

	// slot is the ledger's PeakSlotAt of Aggregate.
	slot int
	// post is PostPeak once postKnown; residuals is Residuals once non-nil.
	post      float64
	postKnown bool
	residuals []float64
	// scored records that differential ran: the full passes a policy paid.
	scored bool
	// o is the placer whose admission built the candidate.
	o *Online
}

// PostPeak returns the peak of the leaf's aggregate trace after admitting
// the arriving instance.
func (c *OnlineCandidate) PostPeak() float64 {
	if !c.postKnown {
		c.post, c.postKnown = c.o.peakWith(c.Aggregate), true
	}
	return c.post
}

// Headroom returns Leaf.Budget − PostPeak (≥ 0 for a feasible candidate).
func (c *OnlineCandidate) Headroom() float64 { return c.Leaf.Budget - c.PostPeak() }

// Residuals returns the leaf's post-admission residual fractions
// (free/capacity ∈ [0, 1]): power first, then the leaf's declared capacity
// dimensions in Dimensions() (sorted) order. A power-only leaf has exactly
// one entry. The slice is owned by the placer and must not be mutated.
func (c *OnlineCandidate) Residuals() []float64 {
	if c.residuals == nil {
		c.residuals = c.o.appendResiduals(c.Leaf, c.Headroom())
	}
	return c.residuals
}

// differential is the §3.6 differential score of the arrival tr against
// the residents of an occupied candidate: one pass over its aggregate.
func (c *OnlineCandidate) differential(tr timeseries.Series) (float64, error) {
	c.o.passes++
	s, err := score.DifferentialFromSum(tr, c.Aggregate, c.Count)
	if err != nil {
		return 0, fmt.Errorf("differential against %q: %w", c.Leaf.Name, err)
	}
	c.scored = true
	return s, nil
}

// Policy picks which feasible leaf hosts an arriving instance.
// Implementations must be deterministic given their configuration and the
// sequence of Choose calls.
type Policy interface {
	// Name identifies the policy in reports and experiment tables.
	Name() string
	// Choose returns the index of the winning candidate. cands is never
	// empty and is ordered by tree (leaf) order.
	Choose(cands []OnlineCandidate, inst Instance, trace timeseries.Series) (int, error)
}

// OnlinePlacer admits and retires instances one at a time against a live
// tree, maintaining whatever incremental state its policy needs between
// calls.
type OnlinePlacer interface {
	// Admit places the instance on a feasible leaf and returns it.
	Admit(inst Instance) (*powertree.Node, error)
	// Retire removes a previously admitted (or pre-existing) instance and
	// returns the leaf that hosted it.
	Retire(id string) (*powertree.Node, error)
}

// Online is the concrete OnlinePlacer. It records the tree's residents at
// construction and keeps two ledgers current through every Admit, Retire,
// Remap and Resync: a powertree.Aggregator holding each node's aggregate
// power trace and a powertree.Usage holding each node's used capacity. Both
// recompute whole nodes from their parts (dirty leaves and their root paths
// only; an admission's leaf entry is its fold's own last add, see
// Aggregator.Append), so the placer's state is a pure function of (tree,
// traces, demands): a placer that has lived through any admit/retire/remap/
// resync history is bit-identical to one freshly built over the same tree.
type Online struct {
	tree    *powertree.Node
	traces  TraceFn
	policy  Policy
	demands DemandFn

	ledger *powertree.Aggregator
	// demandOf records each known instance's resolved demand vector (absent
	// = power-only); usage rolls them up per node. Both stay empty on
	// power-only trees.
	demandOf map[string]powertree.ResourceVector
	usage    *powertree.Usage
	// leafOf locates every admitted instance's hosting leaf. An entry may
	// outlive an instance detached behind the placer's back; Leaf checks.
	leafOf map[string]*powertree.Node
	// The admission in progress: the arrival's trace, its Peak and
	// PeakIndex, its resolved demand, and the passes over node aggregates
	// made for it so far (feasibility, differential and on-demand headroom).
	arrival     timeseries.Series
	arrivalPeak float64
	arrivalSlot int
	demand      powertree.ResourceVector
	passes      uint64
	// cands and residuals are feasibleLeaves' reused output buffers.
	cands     []OnlineCandidate
	residuals []float64
	// hints lists, most recent first, up to maxHints slots at which
	// score.DifferentialBelow proved a candidate lost. It orders the
	// kernel's reads and so changes speed only, never a decision.
	hints []int
}

// maxHints bounds Online.hints.
const maxHints = 8

// NewOnline wraps a live (possibly already populated) tree for online
// placement with the policy cfg describes. Every resident instance's trace
// must resolve through traces; when cfg.Demands is set, residents' demand
// vectors resolve through it too and capacity dimensions are enforced on
// every admission. The zero PolicyConfig reproduces the power-only
// asynchrony placer decision-for-decision.
func NewOnline(tree *powertree.Node, traces TraceFn, cfg PolicyConfig) (*Online, error) {
	policy, err := NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	leaves := tree.Leaves()
	if len(leaves) == 0 {
		return nil, ErrNoLeaves
	}
	o := &Online{
		tree:     tree,
		traces:   traces,
		policy:   policy,
		demands:  cfg.Demands,
		demandOf: make(map[string]powertree.ResourceVector),
		leafOf:   make(map[string]*powertree.Node),
	}
	if o.ledger, err = powertree.NewAggregator(tree, powertree.PowerFn(traces)); err != nil {
		return nil, err
	}
	if err := o.missingTrace(tree); err != nil {
		return nil, err
	}
	for _, leaf := range leaves {
		if err := o.snapshotLeaf(leaf); err != nil {
			return nil, err
		}
	}
	if o.usage, err = powertree.RollUp(tree, o.recordedDemand); err != nil {
		return nil, err
	}
	return o, nil
}

// Aggregates returns every node's current aggregate power trace as an
// immutable snapshot, bit-identical to a fresh AggregateAll over the tree.
func (o *Online) Aggregates() *powertree.Aggregates { return o.ledger.Snapshot() }

// Leaf reports which leaf hosts an admitted (or pre-existing) instance.
func (o *Online) Leaf(id string) (*powertree.Node, bool) {
	leaf, ok := o.leafOf[id]
	return leaf, ok && slices.Contains(leaf.Instances, id)
}

// Used returns the node's accumulated capacity-dimension demand — the
// per-dimension sum over the subtree's residents (nil when nothing in the
// subtree demands anything beyond power). The vector is owned by the placer
// and must not be mutated.
func (o *Online) Used(n *powertree.Node) powertree.ResourceVector { return o.usage.Of(n) }

// recordedDemand is the usage ledger's resolver: demands were validated when
// they were recorded, so it cannot fail.
func (o *Online) recordedDemand(id string) (powertree.ResourceVector, error) {
	return o.demandOf[id], nil
}

// resolveDemand resolves an instance's demand vector — the inline vector
// wins, then the DemandFn — validating and defensively cloning it. Nil means
// power-only.
func resolveDemand(demands DemandFn, id string, inline powertree.ResourceVector) (powertree.ResourceVector, error) {
	d := inline
	if d == nil && demands != nil {
		if v, ok := demands(id); ok {
			d = v
		}
	}
	if len(d) == 0 {
		return nil, nil
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("placement: demand for instance %q: %w", id, err)
	}
	return d.Clone(), nil
}

// snapshotLeaf records the leaf's current residents: leafOf is pointed at
// this leaf for each and unseen ones' demands are resolved. Their traces are
// the ledger's business (see missingTrace).
func (o *Online) snapshotLeaf(leaf *powertree.Node) error {
	for _, id := range leaf.Instances {
		o.leafOf[id] = leaf
		// Demands recorded at admission (possibly inline on the Instance)
		// survive resyncs; only unseen residents consult the DemandFn.
		if _, ok := o.demandOf[id]; !ok {
			d, err := resolveDemand(o.demands, id, nil)
			if err != nil {
				return err
			}
			if d != nil {
				o.demandOf[id] = d
			}
		}
	}
	return nil
}

// missingTrace turns a resident the ledger recorded as untraced under any of
// the given nodes into an error: the policies read a leaf's aggregate as the
// sum of exactly len(leaf.Instances) traces.
func (o *Online) missingTrace(nodes ...*powertree.Node) error {
	aggs := o.ledger.Snapshot()
	for _, n := range nodes {
		if ids := aggs.Missing(n); len(ids) > 0 {
			return fmt.Errorf("%w for resident instance %q", ErrMissingTrace, ids[0])
		}
	}
	return nil
}

// refold brings both ledgers up to date after the given leaves' residents
// changed: each leaf is re-folded and its root path recombined.
func (o *Online) refold(leaves ...*powertree.Node) error {
	if err := o.ledger.MarkDirty(leaves...); err != nil {
		return err
	}
	if _, err := o.ledger.Update(); err != nil {
		return err
	}
	return o.reroll(leaves...)
}

// reroll finishes a ledger update of the given leaves: a resident left
// untraced is an error, and the usage ledger is rolled up along their paths.
func (o *Online) reroll(leaves ...*powertree.Node) error {
	if err := o.missingTrace(leaves...); err != nil {
		return err
	}
	return o.usage.Reroll(o.recordedDemand, leaves...)
}

// Resync reconciles the placer's state with the live tree for the given
// leaves after an external mutation moved instances among them (typically
// another placer's Remap swapping residents between RPPs). Only the named
// leaves and their root paths are touched: residents are re-recorded from
// leaf.Instances and the path aggregates recombined, so a k-leaf resync
// costs O(k·(instances-per-leaf + depth)·len) instead of a full
// reconstruction.
//
// The caller must name every leaf whose instance set changed; missing one
// leaves that leaf's aggregates stale. A target that is not a leaf of the
// placer's tree is rejected before anything changes; on any other error
// (unknown resident trace) the placer's state may be partially updated and
// the placer should be discarded and rebuilt.
func (o *Online) Resync(leaves ...*powertree.Node) error {
	if err := o.ledger.MarkDirty(leaves...); err != nil {
		return fmt.Errorf("placement: resync target: %w", err)
	}
	for _, leaf := range leaves {
		if err := o.snapshotLeaf(leaf); err != nil {
			return err
		}
	}
	if err := o.refold(leaves...); err != nil {
		return err
	}
	obsResyncs.Inc()
	obsResyncLeaves.Add(uint64(len(leaves)))
	return nil
}

// hint moves slot t to the front of the hint list.
func (o *Online) hint(t int) {
	i := slices.Index(o.hints, t)
	if i < 0 {
		if i = len(o.hints); i < maxHints {
			o.hints = append(o.hints, t)
		} else {
			i--
		}
	}
	copy(o.hints[1:i+1], o.hints[:i])
	o.hints[0] = t
}

// peakWith returns the peak of agg + the arrival without materializing the
// sum: a pass over agg, counted, unless agg is empty. The caller has checked
// that a non-empty agg is aligned with the arrival.
func (o *Online) peakWith(agg timeseries.Series) float64 {
	if agg.Empty() {
		return o.arrivalPeak
	}
	o.passes++
	peak := math.Inf(-1)
	for i, v := range agg.Values {
		if s := v + o.arrival.Values[i]; s > peak {
			peak = s
		}
	}
	return peak
}

// overAt reports whether agg + the arrival reads over budget at slot t, a
// reading peakWith's maximum is at least (a sum over budget is not NaN). It
// is false for t < 0 and for an empty agg, whose peakWith is no pass.
func (o *Online) overAt(agg timeseries.Series, t int, budget float64) bool {
	return t >= 0 && !agg.Empty() && agg.Values[t]+o.arrival.Values[t] > budget
}

// appendResiduals appends a candidate leaf's post-admission residual vector
// to the placer's flat residuals buffer and returns the appended window:
// power headroom fraction first, then free/capacity for each declared
// capacity dimension in sorted order. Zero-capacity dimensions read as
// residual 0 (saturated).
func (o *Online) appendResiduals(leaf *powertree.Node, headroom float64) []float64 {
	from := len(o.residuals)
	o.residuals = append(o.residuals, headroom/leaf.Budget)
	used := o.usage.Of(leaf)
	for _, dim := range leaf.Capacities.Dimensions() {
		limit := leaf.Capacities[dim]
		frac := 0.0
		if limit > 0 {
			free := limit - used.Get(dim) - o.demand.Get(dim)
			if free < 0 {
				free = 0 // float residue; Usage.Fits already gated
			}
			frac = free / limit
		}
		o.residuals = append(o.residuals, frac)
	}
	return o.residuals[from:len(o.residuals):len(o.residuals)]
}

// feasibleLeaves collects the leaves that can admit the arrival (and its
// demand vector, if any) without a breaker violation or capacity overflow
// anywhere on their root path, pruning whole subtrees at the first interior
// node that cannot absorb the instance. A node whose ledger peak plus the
// arrival's peak is within budget is feasible without a pass: every reading
// of the sum is at most that sum of peaks, because float addition rounds
// monotonically. Where that bound fails, the sum is read at the arrival's
// peak slot and at the aggregate's: a reading over budget proves the node
// infeasible, since the peak is at least every reading. Only a node neither
// proves infeasible takes a peakWith pass, which decides it. The walk
// is the ledger's pre-order by position, and a pruned subtree is skipped by
// jumping to its end. Candidates come back in tree (leaf) order, in buffers
// the next call overwrites.
func (o *Online) feasibleLeaves() ([]OnlineCandidate, error) {
	aggs := o.ledger.Snapshot()
	tr := o.arrival
	o.cands, o.residuals = o.cands[:0], o.residuals[:0]
	nodes := aggs.Nodes()
	for p := 0; p < len(nodes); {
		n, end := nodes[p], aggs.SubtreeEnd(p)
		agg, _ := aggs.TraceAt(p)
		if !agg.Empty() && (agg.Len() != tr.Len() || !agg.Start.Equal(tr.Start) || agg.Step != tr.Step) {
			return nil, fmt.Errorf("placement: arriving trace misaligned with aggregate (%d@%v vs %d@%v)",
				tr.Len(), tr.Step, agg.Len(), agg.Step)
		}
		post, postKnown := 0.0, false
		if !(aggs.PeakAt(p)+o.arrivalPeak <= n.Budget) {
			if o.overAt(agg, o.arrivalSlot, n.Budget) || o.overAt(agg, aggs.PeakSlotAt(p), n.Budget) {
				p = end // this node's breaker would trip; nothing below fits
				continue
			}
			if post, postKnown = o.peakWith(agg), true; post > n.Budget {
				p = end
				continue
			}
		}
		if !o.usage.Fits(n, o.demand, nil) {
			p = end // a declared capacity dimension would overflow
			continue
		}
		if end == p+1 {
			o.cands = append(o.cands, OnlineCandidate{
				Leaf:      n,
				Aggregate: agg,
				Count:     len(n.Instances),
				slot:      aggs.PeakSlotAt(p),
				post:      post,
				postKnown: postKnown,
				o:         o,
			})
		}
		p++
	}
	return o.cands, nil
}

// Admit implements OnlinePlacer. The instance's trace is resolved through
// the placer's TraceFn; a missing trace is ErrMissingTrace (callers with a
// quarantine path substitute a reference trace in their TraceFn instead).
// An instance no leaf can host without tripping a breaker or overflowing a
// declared capacity dimension on its root path is ErrNoCapacity.
func (o *Online) Admit(inst Instance) (*powertree.Node, error) {
	if _, ok := o.Leaf(inst.ID); ok {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyAdmitted, inst.ID)
	}
	tr, ok := o.traces(inst.ID)
	if !ok {
		return nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, inst.ID)
	}
	demand, err := resolveDemand(o.demands, inst.ID, inst.Demands)
	if err != nil {
		return nil, err
	}
	o.arrival, o.arrivalPeak, o.arrivalSlot = tr, tr.Peak(), tr.PeakIndex()
	o.demand, o.passes = demand, 0
	defer func() {
		obsTracePasses.Add(o.passes)
		o.arrival = timeseries.Series{} // the placer holds no instance's trace
	}()
	cands, err := o.feasibleLeaves()
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		obsAdmissionRejects.Inc()
		return nil, fmt.Errorf("%w: %q", ErrNoCapacity, inst.ID)
	}
	idx, err := o.policy.Choose(cands, inst, tr)
	if err != nil {
		return nil, fmt.Errorf("placement: policy %q choosing for %q: %w", o.policy.Name(), inst.ID, err)
	}
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Errorf("placement: policy %q chose candidate %d of %d", o.policy.Name(), idx, len(cands))
	}
	leaf := cands[idx].Leaf
	if err := leaf.Attach(inst.ID); err != nil {
		return nil, err
	}
	o.leafOf[inst.ID] = leaf
	if demand != nil {
		o.demandOf[inst.ID] = demand
	}
	// The arrival is the leaf's last resident, so its ledger entry is the
	// old one plus the arrival's trace: the fold's own last add.
	_, err = o.ledger.Append(leaf)
	if err == nil {
		err = o.reroll(leaf)
	}
	if err != nil {
		return nil, fmt.Errorf("placement: admitting %q onto %q: %w", inst.ID, leaf.Name, err)
	}
	obsAdmissions.Inc()
	return leaf, nil
}

// Retire implements OnlinePlacer: it detaches the instance and recombines
// the ledgers along its leaf's root path only.
func (o *Online) Retire(id string) (*powertree.Node, error) {
	leaf, ok := o.Leaf(id)
	if !ok || !leaf.Detach(id) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	delete(o.leafOf, id)
	delete(o.demandOf, id)
	if err := o.refold(leaf); err != nil {
		return nil, fmt.Errorf("placement: retiring %q from %q: %w", id, leaf.Name, err)
	}
	obsRetirements.Inc()
	return leaf, nil
}

// ---------------------------------------------------------------- policies

// OnlineRandom is the arrival-stream baseline that picks uniformly among
// the feasible leaves from a seeded stream — the FGD evaluation's "Random"
// policy translated to power trees.
type OnlineRandom struct {
	rng *rand.Rand
}

// Name implements Policy.
func (p *OnlineRandom) Name() string { return "random" }

// Choose implements Policy.
func (p *OnlineRandom) Choose(cands []OnlineCandidate, _ Instance, _ timeseries.Series) (int, error) {
	return p.rng.Intn(len(cands)), nil
}

// OnlineBestFit packs each arrival onto the feasible leaf it fills
// tightest: minimal post-admit headroom, ties to the earlier leaf in tree
// order. This is the classic best-fit bin-packing baseline.
type OnlineBestFit struct{}

// Name implements Policy.
func (OnlineBestFit) Name() string { return "best-fit" }

// Choose implements Policy.
func (OnlineBestFit) Choose(cands []OnlineCandidate, _ Instance, _ timeseries.Series) (int, error) {
	best, bestHead := 0, math.Inf(1)
	for i := range cands {
		if h := cands[i].Headroom(); h < bestHead {
			best, bestHead = i, h
		}
	}
	return best, nil
}

// OnlineAsynchrony is the workload-aware policy: the arrival lands on the
// feasible leaf whose residents it is most asynchronous with, measured by
// the differential asynchrony score of §3.6 (score.DifferentialFromSum over
// the leaf's aggregate, which already is the sum of its residents) — exactly
// the quantity Remap maximizes when it repairs drift, applied at admission
// time instead. Empty leaves score +Inf (a lone instance cannot overlap
// with anything); ties break toward the tighter fit, then tree order.
//
// Choose scores only the candidates that can win, in one pass in tree
// order against the best score so far. A candidate whose O(1) upper bound,
// score.DifferentialBound from the arrival's and the aggregate's peak
// slots, is below that score cannot win or tie. Otherwise
// score.DifferentialBelow looks for one slot that proves the candidate's
// score below it, trying first the slots that proved the last losers
// (the placer's hint list); only a candidate neither settles is scored in
// full. Both tests are exact, so the winner, and any error, is the one
// exhaustive scoring in tree order finds: a candidate with no defined
// bound (a peak ≤ 0, a denominator ≤ 0, a misaligned aggregate) is always
// scored.
type OnlineAsynchrony struct{}

// Name implements Policy.
func (OnlineAsynchrony) Name() string { return "asynchrony" }

// Choose implements Policy.
func (OnlineAsynchrony) Choose(cands []OnlineCandidate, _ Instance, tr timeseries.Series) (int, error) {
	o := cands[0].o
	best, incumbent := -1, math.Inf(-1)
	for i := range cands {
		c := &cands[i]
		s := math.Inf(1)
		if c.Count > 0 {
			if score.DifferentialBound(&tr, o.arrivalSlot, &c.Aggregate, c.slot, c.Count) < incumbent {
				continue
			}
			if t := score.DifferentialBelow(&tr, o.arrivalSlot, &c.Aggregate, c.slot, c.Count, incumbent, o.hints); t >= 0 {
				o.hint(t)
				continue
			}
			var err error
			if s, err = c.differential(tr); err != nil {
				return 0, err
			}
		}
		// A score is never −Inf, so a tie always has a best.
		if s > incumbent || (s == incumbent && c.Headroom() < cands[best].Headroom()) {
			best, incumbent = i, s
		}
	}
	return best, nil
}
