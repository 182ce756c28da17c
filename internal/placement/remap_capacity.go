package placement

import "repro/internal/powertree"

// Multi-resource capacity enforcement for Remap.
//
// Remap's objective stays the paper's differential asynchrony (§3.6); what
// the redesigned policy API adds is a feasibility contract: when the
// RemapConfig's PolicyConfig carries a demand resolver, a swap may only be
// accepted if both affected subtrees stay within every capacity dimension
// they declare after the exchange. A nil resolver keeps the whole guard
// inert — the power-only path is bit-identical to before.

// remapCapacity tracks per-node used capacity across a Remap run. A nil
// *remapCapacity is the inert power-only guard: every method is a no-op that
// reports "fits".
type remapCapacity struct {
	demands  DemandFn
	demandOf map[string]powertree.ResourceVector
	usage    *powertree.Usage
}

// newRemapCapacity builds the guard for a tree, resolving and validating
// every placed instance's demand once and rolling subtree usage up. A nil
// demands resolver yields a nil (inert) guard.
func newRemapCapacity(tree *powertree.Node, demands DemandFn) (*remapCapacity, error) {
	if demands == nil {
		return nil, nil
	}
	rc := &remapCapacity{demands: demands, demandOf: make(map[string]powertree.ResourceVector)}
	var err error
	if rc.usage, err = powertree.RollUp(tree, rc.demandFor); err != nil {
		return nil, err
	}
	return rc, nil
}

// demandFor resolves (and caches) one instance's validated demand vector;
// nil means power-only. Safe on a nil guard.
func (rc *remapCapacity) demandFor(id string) (powertree.ResourceVector, error) {
	if rc == nil {
		return nil, nil
	}
	if d, ok := rc.demandOf[id]; ok {
		return d, nil
	}
	d, err := resolveDemand(rc.demands, id, nil)
	if err != nil {
		return nil, err
	}
	rc.demandOf[id] = d
	return d, nil
}

// lca returns the lowest common ancestor of two nodes of the same tree.
func (rc *remapCapacity) lca(a, b *powertree.Node) *powertree.Node {
	anc := make(map[*powertree.Node]bool)
	for n := a; n != nil; n = n.Parent() {
		anc[n] = true
	}
	for n := b; n != nil; n = n.Parent() {
		if anc[n] {
			return n
		}
	}
	return nil
}

// pathFits checks that used − out + in stays within every declared capacity
// dimension from n up to (exclusive) stop.
func (rc *remapCapacity) pathFits(n, stop *powertree.Node, in, out powertree.ResourceVector) bool {
	dims := in.Dimensions()
	if len(dims) == 0 {
		return true
	}
	for ; n != nil && n != stop; n = n.Parent() {
		if len(n.Capacities) == 0 {
			continue
		}
		used := rc.usage.Of(n)
		for _, dim := range dims {
			limit, ok := n.Capacities[dim]
			if ok && used.Get(dim)-out.Get(dim)+in.Get(dim) > limit {
				return false
			}
		}
	}
	return true
}

// swapFits reports whether exchanging an instance with demand da (leaving
// node a for b) against one with demand db (leaving b for a) keeps every
// capacity dimension within bounds on both root paths. Ancestors shared by
// both nodes see no net change and are excluded via the LCA.
func (rc *remapCapacity) swapFits(a, b *powertree.Node, da, db powertree.ResourceVector) bool {
	if rc == nil || (len(da) == 0 && len(db) == 0) {
		return true
	}
	lca := rc.lca(a, b)
	return rc.pathFits(a, lca, db, da) && rc.pathFits(b, lca, da, db)
}

// swapped re-rolls both root paths after an accepted swap moved instances
// between a and b.
func (rc *remapCapacity) swapped(a, b *powertree.Node) error {
	if rc == nil {
		return nil
	}
	return rc.usage.Reroll(rc.demandFor, a, b)
}
