// Package powertree models the multi-level power delivery infrastructure of
// a large-scale datacenter (paper §2.1, Fig. 2).
//
// The infrastructure is a tree of power nodes: the datacenter root is split
// into suites, each suite is fed by main switching boards (MSBs), which feed
// switching boards (SBs), which feed reactive power panels (RPPs). Servers
// (service instances) attach to the leaf nodes. Each node carries a power
// budget; "the power budget of each node is approximately the sum of the
// budgets of its children", and a node whose aggregate draw exceeds its
// budget for long enough trips its breaker and blacks out the whole subtree
// (§2.2).
package powertree

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/timeseries"
)

// Level identifies a tier of the power delivery tree, ordered from the root
// down. The paper's Fig. 10/11 report metrics at DC, SUITE, MSB, SB and RPP.
type Level int

// The tiers of the Facebook/OCP four-level infrastructure (§2.1).
const (
	DC Level = iota
	Suite
	MSB
	SB
	RPP
)

// Levels lists all tiers from root to leaf.
var Levels = []Level{DC, Suite, MSB, SB, RPP}

// String returns the paper's name for the level.
func (l Level) String() string {
	switch l {
	case DC:
		return "DC"
	case Suite:
		return "SUITE"
	case MSB:
		return "MSB"
	case SB:
		return "SB"
	case RPP:
		return "RPP"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Node is one power delivery device in the tree. Interior nodes have
// children; leaf nodes (level RPP) host service instances.
type Node struct {
	// Name uniquely identifies the node within its tree, e.g. "dc1/s0/m1/b0/r3".
	Name string
	// Level is the node's tier.
	Level Level
	// Budget is the node's power budget in the same unit as the traces.
	Budget float64
	// Capacities optionally declares non-power resource dimensions the node
	// offers (thermal watts, network bandwidth, rack slots, ...). Power stays
	// the canonical dimension carried by Budget; a nil vector means the node
	// declares no extra dimensions and every multi-resource code path is
	// inert. See ResourceVector.
	Capacities ResourceVector
	// Children are the supplied lower-level nodes (empty at leaves).
	Children []*Node
	// Instances holds the IDs of service instances attached to this leaf.
	// Only leaf nodes may host instances.
	Instances []string

	parent *Node
}

// BudgetOverlay overrides node budgets for one evaluation without writing
// the tree: it returns a node's effective budget by name, and ok=false (or a
// nil overlay) means the node's own Budget. Breaker checks, fragmentation
// rows and capping steps all take this one shape, so a what-if trip or an
// injected fault is evaluated against shared state instead of a scaled
// copy.
type BudgetOverlay func(node string) (float64, bool)

// BudgetUnder returns the node's budget under the overlay.
func (n *Node) BudgetUnder(budget BudgetOverlay) float64 {
	if budget != nil {
		if b, ok := budget(n.Name); ok {
			return b
		}
	}
	return n.Budget
}

// Parent returns the supplying node, or nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// IsLeaf reports whether the node is a leaf (hosts instances directly).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Walk visits n and every descendant in depth-first order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// NodesAtLevel returns all descendants of n (including n itself) at the
// given level, in deterministic tree order.
func (n *Node) NodesAtLevel(l Level) []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.Level == l {
			out = append(out, m)
		}
	})
	return out
}

// Leaves returns every leaf node under n in tree order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// AllInstances returns the IDs of every instance hosted under n, in
// deterministic tree order.
func (n *Node) AllInstances() []string {
	var out []string
	n.Walk(func(m *Node) {
		out = append(out, m.Instances...)
	})
	return out
}

// InstanceLeaves maps every instance ID hosted under n to the name of its
// hosting leaf — the membership view fault injection and quarantine
// reporting key on. Later duplicates (which Validate would reject anyway)
// keep the first leaf seen in tree order.
func (n *Node) InstanceLeaves() map[string]string {
	out := make(map[string]string)
	n.Walk(func(m *Node) {
		for _, id := range m.Instances {
			if _, ok := out[id]; !ok {
				out[id] = m.Name
			}
		}
	})
	return out
}

// InstanceCount returns the number of instances hosted under n.
func (n *Node) InstanceCount() int {
	count := 0
	n.Walk(func(m *Node) { count += len(m.Instances) })
	return count
}

// Find returns the descendant (or n itself) with the given name, or nil.
func (n *Node) Find(name string) *Node {
	var found *Node
	n.Walk(func(m *Node) {
		if m.Name == name {
			found = m
		}
	})
	return found
}

// Attach places an instance on the leaf node. It fails on interior nodes:
// "servers can only be supplied by the leaf power nodes" (§2.2).
func (n *Node) Attach(instanceID string) error {
	if !n.IsLeaf() {
		return fmt.Errorf("powertree: cannot attach instance %q to interior node %q (%s)", instanceID, n.Name, n.Level)
	}
	n.Instances = append(n.Instances, instanceID)
	return nil
}

// Detach removes an instance from the leaf node, reporting whether it was
// present.
func (n *Node) Detach(instanceID string) bool {
	for i, id := range n.Instances {
		if id == instanceID {
			n.Instances = append(n.Instances[:i], n.Instances[i+1:]...)
			return true
		}
	}
	return false
}

// ClearInstances removes every instance under n, leaving topology intact.
func (n *Node) ClearInstances() {
	n.Walk(func(m *Node) { m.Instances = nil })
}

// Clone returns a deep copy of the subtree rooted at n, including instance
// placements. The clone's root has a nil parent.
func (n *Node) Clone() *Node {
	c := &Node{Name: n.Name, Level: n.Level, Budget: n.Budget, Capacities: n.Capacities.Clone()}
	if n.Instances != nil {
		c.Instances = append([]string(nil), n.Instances...)
	}
	for _, child := range n.Children {
		cc := child.Clone()
		cc.parent = c
		c.Children = append(c.Children, cc)
	}
	return c
}

// Validate checks structural invariants: positive budgets, children budgets
// not exceeding the parent's (the paper's "approximately the sum" means a
// parent never offers less than each child individually needs; we enforce
// budget(parent) ≥ max child budget and warn-level-check the sum via
// BudgetSlack), instances only at leaves, unique names, correct levels, and
// well-formed capacity vectors (non-negative, "power" reserved, child ≤
// parent wherever both declare a dimension).
func (n *Node) Validate() error {
	if err := validateCapacities(n); err != nil {
		return err
	}
	names := make(map[string]bool)
	var walk func(m *Node) error
	walk = func(m *Node) error {
		if m.Budget <= 0 {
			return fmt.Errorf("powertree: node %q has non-positive budget %v", m.Name, m.Budget)
		}
		if names[m.Name] {
			return fmt.Errorf("powertree: duplicate node name %q", m.Name)
		}
		names[m.Name] = true
		if len(m.Instances) > 0 && !m.IsLeaf() {
			return fmt.Errorf("powertree: interior node %q hosts instances", m.Name)
		}
		for _, c := range m.Children {
			if c.parent != m {
				return fmt.Errorf("powertree: node %q has broken parent link", c.Name)
			}
			if c.Level <= m.Level {
				return fmt.Errorf("powertree: child %q level %s not below parent %q level %s", c.Name, c.Level, m.Name, m.Level)
			}
			if c.Budget > m.Budget {
				return fmt.Errorf("powertree: child %q budget %v exceeds parent %q budget %v", c.Name, c.Budget, m.Name, m.Budget)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(n)
}

// String renders the subtree as an indented outline for debugging.
func (n *Node) String() string {
	var b strings.Builder
	var walk func(m *Node, depth int)
	walk = func(m *Node, depth int) {
		fmt.Fprintf(&b, "%s%s %s budget=%.1f", strings.Repeat("  ", depth), m.Level, m.Name, m.Budget)
		if m.IsLeaf() {
			fmt.Fprintf(&b, " instances=%d", len(m.Instances))
		}
		b.WriteByte('\n')
		for _, c := range m.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// TopologySpec describes a regular power tree: how many children each tier
// fans out to, and the per-leaf budget from which interior budgets are
// derived bottom-up (budget of a node = sum of its children's budgets,
// §2.1).
type TopologySpec struct {
	// Name is the root (datacenter) name, e.g. "dc1".
	Name string
	// SuitesPerDC, MSBsPerSuite, SBsPerMSB and RPPsPerSB set the fan-out at
	// each tier. All must be ≥ 1.
	SuitesPerDC, MSBsPerSuite, SBsPerMSB, RPPsPerSB int
	// LeafBudget is the power budget of each RPP.
	LeafBudget float64
	// LeafCapacities optionally gives every RPP the same non-power capacity
	// vector; interior capacities are derived bottom-up as the per-dimension
	// sum of the children (no margin — non-power capacities are hard limits).
	// Nil builds the classic single-resource tree.
	LeafCapacities ResourceVector
	// BudgetMargin inflates interior budgets above the exact sum of their
	// children, modelling the paper's "approximately the sum". 0 means exact.
	BudgetMargin float64
}

// Errors returned by Build.
var (
	ErrBadFanout = errors.New("powertree: all fan-outs must be ≥ 1")
	ErrBadBudget = errors.New("powertree: leaf budget must be positive")
)

// Build constructs the four-level tree described by the spec.
func Build(spec TopologySpec) (*Node, error) {
	if spec.SuitesPerDC < 1 || spec.MSBsPerSuite < 1 || spec.SBsPerMSB < 1 || spec.RPPsPerSB < 1 {
		return nil, ErrBadFanout
	}
	if spec.LeafBudget <= 0 {
		return nil, ErrBadBudget
	}
	if err := spec.LeafCapacities.Validate(); err != nil {
		return nil, err
	}
	if spec.Name == "" {
		spec.Name = "dc"
	}
	margin := 1 + spec.BudgetMargin

	root := &Node{Name: spec.Name, Level: DC}
	for s := 0; s < spec.SuitesPerDC; s++ {
		suite := &Node{Name: fmt.Sprintf("%s/s%d", spec.Name, s), Level: Suite, parent: root}
		root.Children = append(root.Children, suite)
		for m := 0; m < spec.MSBsPerSuite; m++ {
			msb := &Node{Name: fmt.Sprintf("%s/m%d", suite.Name, m), Level: MSB, parent: suite}
			suite.Children = append(suite.Children, msb)
			for b := 0; b < spec.SBsPerMSB; b++ {
				sb := &Node{Name: fmt.Sprintf("%s/b%d", msb.Name, b), Level: SB, parent: msb}
				msb.Children = append(msb.Children, sb)
				for r := 0; r < spec.RPPsPerSB; r++ {
					rpp := &Node{Name: fmt.Sprintf("%s/r%d", sb.Name, r), Level: RPP, Budget: spec.LeafBudget, Capacities: spec.LeafCapacities.Clone(), parent: sb}
					sb.Children = append(sb.Children, rpp)
				}
			}
		}
	}
	// Derive interior budgets (and, when leaves declare them, capacity
	// vectors) bottom-up.
	var derive func(n *Node) float64
	derive = func(n *Node) float64 {
		if n.IsLeaf() {
			return n.Budget
		}
		var sum float64
		for _, c := range n.Children {
			sum += derive(c)
		}
		n.Budget = sum * margin
		n.Capacities = SumCapacities(n.Children)
		return n.Budget
	}
	derive(root)
	return root, nil
}

// PowerFn resolves an instance ID to its power trace. Implementations are
// typically backed by a trace store keyed by instance. A PowerFn must be
// safe for concurrent calls: AggregateAll fans the per-leaf folds out across
// workers. Read-only map lookups (workload.SubPowerFn)
// and lock-guarded stores (tracestore) both qualify.
type PowerFn func(instanceID string) (timeseries.Series, bool)

// SumOfPeaks computes Σ over nodes at the given level of each node's peak
// aggregate power — the paper's fragmentation indicator #1 (§2.2). The tree
// is aggregated once bottom-up with the default worker count (leaf folds run
// concurrently, peaks are summed serially in tree order), so the result is
// bit-identical to a serial run for any worker count.
func (n *Node) SumOfPeaks(level Level, power PowerFn) (float64, error) {
	agg, err := n.AggregateAll(power)
	if err != nil {
		return 0, err
	}
	return agg.SumOfPeaks(level), nil
}

// BreakerTrip describes a sustained over-budget episode at a node.
type BreakerTrip struct {
	// Node is the name of the tripped node.
	Node string
	// Level is its tier.
	Level Level
	// Start is the index of the first over-budget reading of the episode.
	Start int
	// Duration is how long the draw stayed over budget.
	Duration time.Duration
	// PeakOverdraw is the maximum draw above budget during the episode.
	PeakOverdraw float64
}

// CheckBreakers scans every node's aggregate trace and reports episodes
// where the draw exceeded the budget for at least sustain. This models
// "when the aggregate power at a power node exceeds the power budget of that
// node, after a short amount of time, the circuit breaker is tripped"
// (§2.2).
func (n *Node) CheckBreakers(power PowerFn, sustain time.Duration) ([]BreakerTrip, error) {
	agg, err := n.AggregateAll(power)
	if err != nil {
		return nil, err
	}
	return agg.CheckBreakers(sustain), nil
}
