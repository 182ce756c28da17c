// Package capping implements a hierarchical power-capping runtime in the
// style of Dynamo (Wu et al., ISCA 2016), the production safety net the
// paper designates for short-term spikes: "Short-term workload
// uncertainties such as power spikes caused by traffic bursts are handled
// by commonly deployed emergency measures such as power capping solutions"
// (§3.6). SmoothOperator's placement makes capping *rarely necessary*; this
// runtime is what fires when it still is.
//
// The controller watches every node of the power delivery tree. When a
// node's draw exceeds its cap for longer than a sustain window, the
// controller sheds power from the node's subtree in priority order —
// batch-class instances are throttled first, then backend, then (only as a
// last resort) latency-critical instances — and releases the caps with
// hysteresis once the draw falls back.
package capping

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/powertree"
)

// Priority orders workload classes for shedding: higher values shed first.
type Priority int

// Shedding priorities, last-resort first.
const (
	// PriorityLC is shed only as a last resort.
	PriorityLC Priority = iota
	// PriorityBackend sheds before LC.
	PriorityBackend
	// PriorityBatch sheds first.
	PriorityBatch
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityLC:
		return "LC"
	case PriorityBackend:
		return "Backend"
	case PriorityBatch:
		return "Batch"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// InstanceState is the controller's per-instance view at one step.
type InstanceState struct {
	// Power is the instance's current draw.
	Power float64
	// MinPower is the floor the instance can be throttled to (idle or
	// RAPL/DVFS floor).
	MinPower float64
	// Priority is the instance's shedding class.
	Priority Priority
}

// Reader supplies the controller with the current state of an instance.
type Reader func(instanceID string) (InstanceState, bool)

// PeakState is the capping state of an instance known only by its power
// trace over a window: it draws the window's peak, can be throttled to half
// of it, and sheds as backend class (traces carry no workload class). The
// runtime's emergency path and the planner's trip_breaker query both read
// instances this way.
func PeakState(peak float64) InstanceState {
	return InstanceState{Power: peak, MinPower: 0.5 * peak, Priority: PriorityBackend}
}

// Config tunes the controller.
type Config struct {
	// SustainSteps is how many consecutive over-cap observations arm a cap
	// (breakers tolerate brief excursions). 0 means 1 (immediate).
	SustainSteps int
}

const (
	// releaseFraction releases an armed cap once draw falls below this
	// fraction of the node's cap.
	releaseFraction = 0.95
	// capFraction is the target draw as a fraction of a node's budget when
	// shedding; shedding aims below the budget to create margin.
	capFraction = 0.98
)

func (c Config) sustain() int {
	if c.SustainSteps <= 0 {
		return 1
	}
	return c.SustainSteps
}

// Throttle is one shedding directive issued by the controller.
type Throttle struct {
	// InstanceID is the throttled instance.
	InstanceID string
	// Node is the power node whose cap triggered the directive.
	Node string
	// TargetPower is the draw the instance must be brought down to.
	TargetPower float64
	// Shed is the power removed (instance draw − target).
	Shed float64
	// Priority is the instance's class.
	Priority Priority
}

// Event records a controller state transition for one node.
type Event struct {
	// Node is the power node.
	Node string
	// Armed is true when the cap engaged, false when it released.
	Armed bool
}

// Controller is a stateful hierarchical capping runtime bound to one tree.
type Controller struct {
	cfg  Config
	tree *powertree.Node

	overCount map[string]int
	armed     map[string]bool
}

// ErrNilTree is returned by New for a nil tree.
var ErrNilTree = errors.New("capping: nil tree")

// New returns a controller for the given (already populated) power tree.
func New(tree *powertree.Node, cfg Config) (*Controller, error) {
	if tree == nil {
		return nil, ErrNilTree
	}
	return &Controller{
		cfg:       cfg,
		tree:      tree,
		overCount: make(map[string]int),
		armed:     make(map[string]bool),
	}, nil
}

// Step observes the current per-instance state and returns the throttles to
// apply plus any arm/release events. The controller walks the tree bottom-up
// so leaf-level caps act before (and usually instead of) ancestor caps.
//
// Throttles are advisory targets; the caller applies them to its actuators
// (RAPL, DVFS, load shedding). Within one step, directives from different
// nodes for the same instance are merged to the lowest target.
func (c *Controller) Step(read Reader) ([]Throttle, []Event, error) {
	return c.StepWithBudgets(read, nil)
}

// StepWithBudgets is Step with per-node budget overrides for this step
// only, read through the overlay (nil means every node's own Budget). The
// emergency-degradation path and what-if trips use it to model a breaker
// trip — the tripped node runs on its backup feed at a fraction of nominal
// capacity, so draws that were fine yesterday now arm its cap and shed —
// without writing the tree: a step reads the tree and writes only the
// controller's own sustain and arm state.
//
// A step lays the instances out in one slab (see layout): each subtree's
// instances are one contiguous range of a pre-order list, so per-instance
// state and effective draw live in slices indexed by slab position, a
// node's draw is summed over its range in AllInstances order, and shedding
// sorts that range's positions. Instance IDs are unique within a tree (the
// runtime never places one twice), so one position per instance holds what
// an ID-keyed map would.
func (c *Controller) StepWithBudgets(read Reader, budget powertree.BudgetOverlay) ([]Throttle, []Event, error) {
	var throttles []Throttle
	var events []Event

	// Effective power per slab position, updated as throttles are issued so
	// that ancestor nodes see the relief from descendant caps.
	ids, spans := layout(c.tree)
	states := make([]InstanceState, len(ids))
	effective := make([]float64, len(ids))
	for p, id := range ids {
		st, ok := read(id)
		if !ok {
			return nil, nil, fmt.Errorf("capping: no state for instance %q", id)
		}
		states[p] = st
		effective[p] = st.Power
	}

	var order []int
	for _, sp := range spans {
		if sp.lo == sp.hi {
			continue
		}
		nd := sp.node
		var draw float64
		for _, e := range effective[sp.lo:sp.hi] {
			draw += e
		}
		nodeBudget := nd.BudgetUnder(budget)
		over := draw > nodeBudget
		if over {
			c.overCount[nd.Name]++
		} else {
			c.overCount[nd.Name] = 0
		}

		switch {
		case !c.armed[nd.Name] && over && c.overCount[nd.Name] >= c.cfg.sustain():
			c.armed[nd.Name] = true
			events = append(events, Event{Node: nd.Name, Armed: true})
		case c.armed[nd.Name] && draw < nodeBudget*releaseFraction:
			c.armed[nd.Name] = false
			events = append(events, Event{Node: nd.Name, Armed: false})
		}
		if !c.armed[nd.Name] {
			continue
		}

		// Shed down to the cap target, batch first, largest draw first.
		target := nodeBudget * capFraction
		need := draw - target
		if need <= 0 {
			continue
		}
		order = order[:0]
		for p := sp.lo; p < sp.hi; p++ {
			order = append(order, p)
		}
		sort.SliceStable(order, func(a, b int) bool {
			pa, pb := states[order[a]].Priority, states[order[b]].Priority
			if pa != pb {
				return pa > pb // batch (highest value) first
			}
			return effective[order[a]] > effective[order[b]]
		})
		for _, p := range order {
			if need <= 0 {
				break
			}
			st := states[p]
			avail := effective[p] - st.MinPower
			if avail <= 0 {
				continue
			}
			shed := avail
			if shed > need {
				shed = need
			}
			newPower := effective[p] - shed
			effective[p] = newPower
			need -= shed
			throttles = append(throttles, Throttle{
				InstanceID:  ids[p],
				Node:        nd.Name,
				TargetPower: newPower,
				Shed:        shed,
				Priority:    st.Priority,
			})
		}
	}

	merged := mergeThrottles(throttles)
	var arms, releases uint64
	for _, ev := range events {
		if ev.Armed {
			arms++
		} else {
			releases++
		}
	}
	armedNow := 0
	for _, on := range c.armed { // order-independent count over map values
		if on {
			armedNow++
		}
	}
	obsSteps.Inc()
	obsThrottlesIssued.Add(uint64(len(merged)))
	obsArmEvents.Add(arms)
	obsReleaseEvents.Add(releases)
	obsArmedNodes.Set(float64(armedNow))
	return merged, events, nil
}

// mergeThrottles keeps the lowest target per instance.
func mergeThrottles(ts []Throttle) []Throttle {
	best := make(map[string]int)
	var out []Throttle
	for _, t := range ts {
		if i, ok := best[t.InstanceID]; ok {
			if t.TargetPower < out[i].TargetPower {
				out[i].TargetPower = t.TargetPower
				out[i].Shed += t.Shed
				out[i].Node = t.Node
			}
			continue
		}
		best[t.InstanceID] = len(out)
		out = append(out, t)
	}
	return out
}

// span is one node's range of a step's slab: its subtree's instances sit at
// slab positions [lo, hi).
type span struct {
	node   *powertree.Node
	depth  int
	lo, hi int
}

// layout walks the tree once in pre-order, listing each node's own
// instances before its children's subtrees, so ids is in AllInstances order
// and every subtree is one contiguous range of it. The spans come back
// leaves-first — depth descending, tree order within a depth — which is the
// order a step visits the nodes in.
func layout(root *powertree.Node) (ids []string, spans []span) {
	var walk func(n *powertree.Node, depth int)
	walk = func(n *powertree.Node, depth int) {
		i := len(spans)
		spans = append(spans, span{node: n, depth: depth, lo: len(ids)})
		ids = append(ids, n.Instances...)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		spans[i].hi = len(ids)
	}
	walk(root, 0)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].depth > spans[j].depth })
	return ids, spans
}
