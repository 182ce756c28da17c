package powertree

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/detmap"
)

// Multi-resource capacity support.
//
// The paper's tree carries a single capacity dimension — the power budget —
// and everything in the reproduction keys off Node.Budget. Real placement
// also strands thermal, network and rack-space headroom: a node can have
// abundant residual power yet no network ports left, so nothing more fits
// ("Power- and Fragmentation-aware Online Scheduling for GPU Datacenters",
// PAPERS.md). A Node may therefore optionally carry a Capacities vector of
// named non-power dimensions alongside its canonical power budget. Trees
// without capacities behave (and serialize) exactly as before; every
// multi-resource code path is inert when the vector is nil.

// PowerDimension names the canonical capacity dimension carried by
// Node.Budget. It is reserved: ResourceVectors must not redeclare it.
const PowerDimension = "power"

// ResourceVector maps resource dimension names (e.g. "net_gbps",
// "rack_slots", "thermal_w") to non-negative quantities. A nil vector means
// "no declared dimensions". Vectors are value-semantics maps: helpers return
// fresh maps and never mutate their receivers' callers; iterate via
// Dimensions for deterministic order.
type ResourceVector map[string]float64

// Errors returned by resource-vector validation.
var (
	ErrBadDimension   = errors.New("powertree: resource dimensions must be named, finite and non-negative")
	ErrReservedPower  = errors.New(`powertree: dimension "power" is reserved for Node.Budget`)
	ErrCapacityExceed = errors.New("powertree: child capacity exceeds parent capacity")
)

// Dimensions returns the vector's dimension names in ascending order — the
// only sanctioned iteration order inside the deterministic pipeline.
func (v ResourceVector) Dimensions() []string {
	if len(v) == 0 {
		return nil
	}
	return detmap.SortedKeys(v)
}

// Clone returns an independent copy (nil stays nil).
func (v ResourceVector) Clone() ResourceVector {
	if v == nil {
		return nil
	}
	out := make(ResourceVector, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Get returns the quantity for a dimension, 0 when absent.
func (v ResourceVector) Get(dim string) float64 { return v[dim] }

// AddInPlace folds w into v (allocating only when v is nil) and returns the
// result — the vector analogue of Series.AddInPlace.
func (v ResourceVector) AddInPlace(w ResourceVector) ResourceVector {
	if len(w) == 0 {
		return v
	}
	if v == nil {
		return w.Clone()
	}
	for k, val := range w {
		v[k] += val
	}
	return v
}

// Validate checks that every dimension is named, finite and non-negative,
// and that the reserved power dimension is not redeclared.
func (v ResourceVector) Validate() error {
	for _, dim := range v.Dimensions() {
		if dim == "" {
			return ErrBadDimension
		}
		if dim == PowerDimension {
			return ErrReservedPower
		}
		val := v[dim]
		if math.IsNaN(val) || math.IsInf(val, 0) || val < 0 {
			return fmt.Errorf("%w: %q = %v", ErrBadDimension, dim, val)
		}
	}
	return nil
}

// SumCapacities derives a node's capacity vector as the per-dimension sum of
// its children's capacities — the multi-resource analogue of "the power
// budget of each node is approximately the sum of the budgets of its
// children" (§2.2).
func SumCapacities(children []*Node) ResourceVector {
	var sum ResourceVector
	for _, c := range children {
		sum = sum.AddInPlace(c.Capacities)
	}
	return sum
}

// Usage holds every node's used capacity: the per-dimension sum of the
// demand vectors of the instances hosted in its subtree (nil where nothing
// below demands anything beyond power). It is the capacity-dimension
// counterpart of Aggregates and, like it, a pure function of the tree's
// placement and the demands — RollUp and Reroll recompute whole nodes, never
// adjust them, so a retained Usage and a rebuilt one are bit-identical. A
// nil *Usage reads as all-zero.
type Usage struct {
	used map[*Node]ResourceVector
}

// RollUp sums demand vectors up the whole tree. demand resolves an instance
// to its (already validated) vector, nil meaning power-only; a nil resolver
// yields an all-zero Usage. The first resolver error aborts the roll-up.
func RollUp(root *Node, demand func(id string) (ResourceVector, error)) (*Usage, error) {
	u := &Usage{used: make(map[*Node]ResourceVector)}
	if demand == nil {
		return u, nil
	}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return u.roll(n, demand)
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return u, nil
}

// Reroll recomputes each given node and its ancestors after the node's own
// instance list changed; every other node's vector stays as it was.
func (u *Usage) Reroll(demand func(id string) (ResourceVector, error), nodes ...*Node) error {
	for _, n := range nodes {
		for m := n; m != nil; m = m.Parent() {
			if err := u.roll(m, demand); err != nil {
				return err
			}
		}
	}
	return nil
}

// roll recomputes one node from its own residents in attachment order, then
// its children's current vectors in child order — the only place demand
// vectors are summed up the tree, so every consumer sees the same float
// operation order.
func (u *Usage) roll(n *Node, demand func(id string) (ResourceVector, error)) error {
	var sum ResourceVector
	for _, id := range n.Instances {
		d, err := demand(id)
		if err != nil {
			return err
		}
		sum = sum.AddInPlace(d)
	}
	for _, c := range n.Children {
		sum = sum.AddInPlace(u.used[c])
	}
	if sum == nil {
		delete(u.used, n)
	} else {
		u.used[n] = sum
	}
	return nil
}

// Of returns the node's used-capacity vector (nil when nothing in the
// subtree demands anything beyond power). The vector is owned by the Usage
// and must not be mutated.
func (u *Usage) Of(n *Node) ResourceVector {
	if u == nil {
		return nil
	}
	return u.used[n]
}

// Fits reports whether node n stays within every capacity dimension it
// declares once a demand of out leaves its subtree and one of in arrives:
// used − out + in ≤ capacity in each dimension in names. Dimensions n does
// not declare are unconstrained there (partial declarations are allowed),
// and a nil in always fits. This is the one capacity-fit rule: admission
// passes out = nil, a remap swap passes the departing instance's demand.
func (u *Usage) Fits(n *Node, in, out ResourceVector) bool {
	if len(in) == 0 || len(n.Capacities) == 0 {
		return true
	}
	used := u.Of(n)
	for _, dim := range in.Dimensions() {
		limit, ok := n.Capacities[dim]
		if ok && used.Get(dim)-out.Get(dim)+in.Get(dim) > limit {
			return false
		}
	}
	return true
}

// Over reports the first dimension, in ascending order, in which the used
// vector v exceeds capacity: used > capacity, Fits' comparison with nothing
// arriving or leaving. Dimensions capacity does not declare are
// unconstrained, so a nil capacity is never over.
func (v ResourceVector) Over(capacity ResourceVector) (dim string, over bool) {
	if len(v) == 0 {
		return "", false
	}
	for _, d := range capacity.Dimensions() {
		if v.Get(d) > capacity[d] {
			return d, true
		}
	}
	return "", false
}

// validateCapacities walks the subtree checking the capacity invariants:
// every vector is well-formed and, wherever parent and child both declare a
// dimension, the child's capacity does not exceed the parent's (mirroring
// the Budget rule).
func validateCapacities(n *Node) error {
	if err := n.Capacities.Validate(); err != nil {
		return fmt.Errorf("node %q: %w", n.Name, err)
	}
	for _, c := range n.Children {
		for _, dim := range c.Capacities.Dimensions() {
			pcap, ok := n.Capacities[dim]
			if !ok {
				continue
			}
			if c.Capacities[dim] > pcap {
				return fmt.Errorf("%w: %q %s %v > %q %v",
					ErrCapacityExceed, c.Name, dim, c.Capacities[dim], n.Name, pcap)
			}
		}
		if err := validateCapacities(c); err != nil {
			return err
		}
	}
	return nil
}
