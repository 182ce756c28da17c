package metrics

import (
	"fmt"
	"math"

	"repro/internal/powertree"
)

// Power fragmentation rate.
//
// FGD ("Beware of Fragmentation"-style GPU scheduling) reports a
// fragmentation rate: the share of cluster capacity that exists on paper but
// cannot actually serve the arriving workload. The power-tree analogue is
// stranded watts: headroom a node advertises (budget − aggregate peak) that
// cannot be delivered to new load because it is walled off behind
// lower-level breakers. A suite with 100 kW of headroom whose RPPs are all
// within 1 kW of tripping can really admit only Σ leaf headrooms; the rest
// is fragmentation — and with exact budget sums it equals the headroom lost
// to synchronous peaks (Σ child peaks − own peak), the exact quantity the
// asynchrony score drives down.
//
// Admissible headroom is computed bottom-up:
//
//	admissible(leaf)     = max(0, budget − peak)
//	admissible(interior) = min(max(0, budget − peak), Σ admissible(children))
//
// and stranded(n) = max(0, budget − peak) − admissible(n). The
// fragmentation rate of a level is Σ stranded over its nodes, normalized by
// the level's total budget, so 0 means every advertised watt of headroom is
// reachable and 1 means the level's whole capacity is stranded.
//
// With multi-resource nodes (powertree.ResourceVector) the same question is
// asked per capacity dimension: a leaf can advertise free network ports that
// are unreachable because an ancestor's declared network capacity is
// exhausted, and — the FARB motivation — a node can hold abundant residual
// in one dimension and none in another. One routine (strandedRows) answers
// it for every dimension; power is simply the dimension every node declares,
// with capacity Budget and usage the aggregate peak. A node that does not
// declare a dimension imposes no constraint on it (its subtree passes demand
// through unbounded), mirroring the partial-declaration rule of
// powertree.Node.Capacities.

// FragmentationRow is one level's share of a fragmentation report, for one
// resource dimension.
type FragmentationRow struct {
	// Level is the tier the row describes.
	Level powertree.Level
	// Dimension names the resource the row measures:
	// powertree.PowerDimension for the canonical power rows, a capacity
	// dimension name for rows from MultiFragmentationRates. Units follow the
	// dimension (watts for power, the declared unit otherwise) — the
	// StrandedWatts field name keeps its historical power spelling.
	Dimension string
	// Capacity is Σ budget over the level's nodes.
	Capacity float64
	// Headroom is Σ max(0, budget − peak): the watts the level advertises
	// as free.
	Headroom float64
	// Overcommitted counts the level's nodes whose use exceeds their
	// capacity: the nodes Headroom clamps to 0.
	Overcommitted int
	// Admissible is Σ admissible(n): the watts new load can actually reach
	// through the level without tripping a breaker below it.
	Admissible float64
	// StrandedWatts is Headroom − Admissible.
	StrandedWatts float64
	// RatePct is 100 × StrandedWatts / Capacity — the power fragmentation
	// rate of the level.
	RatePct float64
}

// strandedRows computes one dimension's per-level rows in a single bottom-up
// pass over the subtree at position root of the aggregation's pre-order
// layout. limit reports a node's declared capacity in the dimension (false =
// undeclared, unconstrained) and used what the subtree at a position
// currently draws. Levels where no node declares the dimension are skipped;
// rows come back in root-to-leaf level order, each summing its nodes in tree
// order. A node using more than its capacity adds 0 headroom and counts as
// overcommitted.
func strandedRows(aggs *powertree.Aggregates, root int, dim string, limit func(*powertree.Node) (float64, bool), used func(p int) float64) []FragmentationRow {
	nodes := aggs.Nodes()
	var rows [powertree.RPP + 1]FragmentationRow
	var seen [powertree.RPP + 1]bool
	// build returns admissible(p): +Inf means the subtree imposes no
	// constraint (no declarations at or below p).
	var build func(p int) float64
	build = func(p int) float64 {
		n, end := nodes[p], aggs.SubtreeEnd(p)
		below := math.Inf(1)
		if end > p+1 {
			below = 0
			for c := p + 1; c < end; c = aggs.SubtreeEnd(c) {
				below += build(c)
			}
		}
		capacity, declared := limit(n)
		if !declared {
			return below
		}
		head, over := capacity-used(p), 0
		if head < 0 {
			head, over = 0, 1
		}
		adm := head
		if below < adm {
			adm = below
		}
		if n.Level < 0 || int(n.Level) >= len(rows) {
			return adm // a level no row reports
		}
		row := &rows[n.Level]
		if !seen[n.Level] {
			*row = FragmentationRow{Level: n.Level, Dimension: dim}
			seen[n.Level] = true
		}
		row.Overcommitted += over
		row.Capacity += capacity
		row.Headroom += head
		row.Admissible += adm
		return adm
	}
	build(root)

	out := make([]FragmentationRow, 0, len(rows))
	for level := range rows {
		if !seen[level] {
			continue
		}
		row := rows[level]
		row.StrandedWatts = row.Headroom - row.Admissible
		if row.Capacity > 0 {
			row.RatePct = 100 * row.StrandedWatts / row.Capacity
		}
		out = append(out, row)
	}
	return out
}

// rootOf returns the tree's position in the aggregation, or an error when
// the aggregation does not hold it.
func rootOf(tree *powertree.Node, aggs *powertree.Aggregates) (int, error) {
	if p := aggs.Position(tree); p >= 0 {
		return p, nil
	}
	return 0, fmt.Errorf("metrics: node %q is not part of the aggregated tree", tree.Name)
}

// FragmentationRatesFrom computes the power-fragmentation rate of every
// level of the tree from an aggregation snapshot that holds the tree.
// Leaves have rate 0 by construction (nothing sits below their breakers);
// interior levels accumulate the headroom their subtrees cannot deliver.
func FragmentationRatesFrom(tree *powertree.Node, aggs *powertree.Aggregates) ([]FragmentationRow, error) {
	return FragmentationRatesWithBudgets(tree, aggs, nil)
}

// FragmentationRatesWithBudgets is FragmentationRatesFrom with each node's
// budget read through the overlay (nil means nominal budgets), so the rows
// of a tripped feed come from the same aggregates as the nominal ones.
func FragmentationRatesWithBudgets(tree *powertree.Node, aggs *powertree.Aggregates, budget powertree.BudgetOverlay) ([]FragmentationRow, error) {
	root, err := rootOf(tree, aggs)
	if err != nil {
		return nil, err
	}
	rows := strandedRows(aggs, root, powertree.PowerDimension,
		func(n *powertree.Node) (float64, bool) { return n.BudgetUnder(budget), true }, aggs.PeakAt)
	for _, row := range rows {
		if row.Capacity <= 0 {
			return nil, fmt.Errorf("%w: level %s has no capacity", ErrBudget, row.Level)
		}
	}
	return rows, nil
}

// MultiFragmentationRates aggregates the tree afresh and reports one row per
// (level, dimension): the canonical power rows come first (in level order),
// then each declared capacity dimension's rows in ascending dimension order. demands resolves instance IDs to their demand vectors (the
// placement.DemandFn shape); a nil resolver or a tree with no declared
// capacities yields exactly the power rows.
func MultiFragmentationRates(tree *powertree.Node, traces powertree.PowerFn, demands func(id string) (powertree.ResourceVector, bool)) ([]FragmentationRow, error) {
	aggs, err := tree.AggregateAll(traces)
	if err != nil {
		return nil, fmt.Errorf("metrics: aggregating for fragmentation: %w", err)
	}
	usage, err := rollUp(tree, demands)
	if err != nil {
		return nil, err
	}
	return MultiFragmentationRatesFrom(tree, aggs, usage.Of)
}

// MultiFragmentationRatesFrom is MultiFragmentationRates over state the
// caller already holds: an aggregation snapshot that holds the tree and
// each node's used capacity (powertree.Usage.Of, or a placer's ledger).
func MultiFragmentationRatesFrom(tree *powertree.Node, aggs *powertree.Aggregates, used func(*powertree.Node) powertree.ResourceVector) ([]FragmentationRow, error) {
	rows, err := FragmentationRatesFrom(tree, aggs)
	if err != nil {
		return nil, err
	}
	root, _ := rootOf(tree, aggs) // FragmentationRatesFrom found it
	// Every capacity dimension declared anywhere in the tree, ascending.
	var declared powertree.ResourceVector
	tree.Walk(func(n *powertree.Node) {
		declared = declared.AddInPlace(n.Capacities)
	})
	nodes := aggs.Nodes()
	for _, dim := range declared.Dimensions() {
		rows = append(rows, strandedRows(aggs, root, dim,
			func(n *powertree.Node) (float64, bool) { c, ok := n.Capacities[dim]; return c, ok },
			func(p int) float64 { return used(nodes[p]).Get(dim) })...)
	}
	return rows, nil
}

// rollUp sums every node's subtree demand through the given resolver,
// validating each placed instance's vector on the way.
func rollUp(tree *powertree.Node, demands func(id string) (powertree.ResourceVector, bool)) (*powertree.Usage, error) {
	if demands == nil {
		return powertree.RollUp(tree, nil)
	}
	return powertree.RollUp(tree, func(id string) (powertree.ResourceVector, error) {
		d, ok := demands(id)
		if !ok || len(d) == 0 {
			return nil, nil
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("metrics: demand for instance %q: %w", id, err)
		}
		return d, nil
	})
}

// StrandedNodeCount reports how many nodes at a level are stranded for the
// given demand shape: the node has strictly positive headroom in at least
// one dimension (power included) yet cannot admit one probe instance of the
// given demand because some other dimension (or an ancestor) is exhausted.
// It is the node-granularity companion to the rate rows — the quantity the
// multi-dimension experiment drives down — computed from the tree's
// aggregation and used capacities against a probe of probePower watts and
// probeDemand (nil means power-only probing).
func StrandedNodeCount(aggs *powertree.Aggregates, usage *powertree.Usage, level powertree.Level, probePower float64, probeDemand powertree.ResourceVector) int {
	fits := func(n *powertree.Node) bool {
		for m := n; m != nil; m = m.Parent() {
			if aggs.Peak(m)+probePower > m.Budget {
				return false
			}
			if !usage.Fits(m, probeDemand, nil) {
				return false
			}
		}
		return true
	}
	count := 0
	for _, n := range aggs.NodesAtLevel(level) {
		headroom := aggs.Headroom(n) > 0
		for _, dim := range n.Capacities.Dimensions() {
			if n.Capacities[dim]-usage.Of(n).Get(dim) > 0 {
				headroom = true
			}
		}
		if headroom && !fits(n) {
			count++
		}
	}
	return count
}
