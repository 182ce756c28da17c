package placement

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// onlinePolicies returns a fresh instance of every online policy (random
// policies carry a decision stream, so tests must not share them between
// runs).
func onlinePolicies() []Policy {
	return []Policy{&OnlineRandom{rng: newRand(7)}, OnlineBestFit{}, OnlineAsynchrony{}}
}

func TestOnlineAdmitsWholeFleet(t *testing.T) {
	for _, policy := range onlinePolicies() {
		t.Run(policy.Name(), func(t *testing.T) {
			instances, traces, tree := testFixture(t)
			o, err := NewOnline(tree, traces, PolicyConfig{Custom: policy})
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range instances {
				leaf, err := o.Admit(inst)
				if err != nil {
					t.Fatalf("admit %q: %v", inst.ID, err)
				}
				if leaf == nil || !leaf.IsLeaf() {
					t.Fatalf("admit %q returned %v", inst.ID, leaf)
				}
			}
			if err := Verify(tree, instances); err != nil {
				t.Fatal(err)
			}
			// No breaker may be violated anywhere in the tree.
			aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
			if err != nil {
				t.Fatal(err)
			}
			tree.Walk(func(n *powertree.Node) {
				if p := aggs.Peak(n); p > n.Budget {
					t.Errorf("node %q peak %.1f exceeds budget %.1f", n.Name, p, n.Budget)
				}
			})
			// The placer's ledger must equal a fresh bottom-up aggregation
			// exactly: it recombines whole nodes, never adjusts them.
			tree.Walk(func(n *powertree.Node) {
				if got, want := o.Aggregates().Peak(n), aggs.Peak(n); got != want {
					t.Errorf("node %q ledger peak %v, fresh %v", n.Name, got, want)
				}
			})
		})
	}
}

func TestOnlineStartsFromPopulatedTree(t *testing.T) {
	instances, traces, tree := testFixture(t)
	half := len(instances) / 2
	if err := (Random{Seed: 3}).Place(tree, instances[:half], traces); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances[half:] {
		if _, err := o.Admit(inst); err != nil {
			t.Fatalf("admit %q onto populated tree: %v", inst.ID, err)
		}
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineRejectsWhenFull(t *testing.T) {
	instances, traces, tree := testFixture(t)
	// Budgets far below one instance's peak: nothing fits anywhere.
	tree.Walk(func(n *powertree.Node) { n.Budget = 1 })
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(instances[0]); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("admit into zero-capacity tree: %v, want ErrNoCapacity", err)
	}
	if tree.InstanceCount() != 0 {
		t.Fatal("rejected admission mutated the tree")
	}
}

func TestOnlineRetireAndReadmit(t *testing.T) {
	instances, traces, tree := testFixture(t)
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances {
		if _, err := o.Admit(inst); err != nil {
			t.Fatal(err)
		}
	}
	victim := instances[3]
	leaf, err := o.Retire(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range leaf.Instances {
		if id == victim.ID {
			t.Fatalf("retired %q still attached to %q", victim.ID, leaf.Name)
		}
	}
	if n := tree.InstanceCount(); n != len(instances)-1 {
		t.Fatalf("after retire: %d instances, want %d", n, len(instances)-1)
	}
	if _, err := o.Retire(victim.ID); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("double retire: %v, want ErrUnknownInstance", err)
	}
	if _, err := o.Retire("no-such-instance"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("retire unknown: %v, want ErrUnknownInstance", err)
	}
	if _, err := o.Admit(victim); err != nil {
		t.Fatalf("re-admit after retire: %v", err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineRejectsDoubleAdmit(t *testing.T) {
	instances, traces, tree := testFixture(t)
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(instances[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(instances[0]); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("double admit: %v, want ErrAlreadyAdmitted", err)
	}
}

func TestOnlineMissingTrace(t *testing.T) {
	instances, traces, tree := testFixture(t)
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(Instance{ID: "ghost", Service: "x"}); !errors.Is(err, ErrMissingTrace) {
		t.Fatalf("admit without trace: %v, want ErrMissingTrace", err)
	}
	_ = instances
}

func TestOnlineDeterministicReplay(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return &OnlineRandom{rng: newRand(11)} },
		func() Policy { return OnlineBestFit{} },
		func() Policy { return OnlineAsynchrony{} },
	} {
		run := func() map[string]string {
			instances, traces, tree := testFixture(t)
			o, err := NewOnline(tree, traces, PolicyConfig{Custom: mk()})
			if err != nil {
				t.Fatal(err)
			}
			placedAt := make(map[string]string, len(instances))
			for _, inst := range instances {
				leaf, err := o.Admit(inst)
				if err != nil {
					t.Fatal(err)
				}
				placedAt[inst.ID] = leaf.Name
			}
			return placedAt
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("replay sizes differ: %d vs %d", len(a), len(b))
		}
		for id, leaf := range a {
			if b[id] != leaf {
				t.Fatalf("replay diverged for %q: %q vs %q", id, leaf, b[id])
			}
		}
	}
}

// TestOnlineAsynchronySpreadsSynchronousPairs pins the policy's core
// behaviour on a hand-built case: two perfectly synchronous instances must
// land on different leaves while a counter-phased third co-locates.
func TestOnlineAsynchronySpreadsSynchronousPairs(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "m", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	day := make([]float64, 24)
	night := make([]float64, 24)
	for i := range day {
		day[i], night[i] = 10, 10
		if i >= 9 && i < 17 {
			day[i] = 100
		} else {
			night[i] = 100
		}
	}
	mk := func(vals []float64) timeseries.Series {
		return timeseries.New(t0, time.Hour, vals)
	}
	traces := map[string]timeseries.Series{
		"day-0":   mk(day),
		"day-1":   mk(day),
		"night-0": mk(night),
	}
	lookup := TraceFn(func(id string) (timeseries.Series, bool) {
		tr, ok := traces[id]
		return tr, ok
	})
	o, err := NewOnline(tree, lookup, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l0, err := o.Admit(Instance{ID: "day-0", Service: "day"})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := o.Admit(Instance{ID: "day-1", Service: "day"})
	if err != nil {
		t.Fatal(err)
	}
	if l0 == l1 {
		t.Fatalf("synchronous pair co-located on %q", l0.Name)
	}
	l2, err := o.Admit(Instance{ID: "night-0", Service: "night"})
	if err != nil {
		t.Fatal(err)
	}
	// The counter-phased arrival must join one of the day instances (both
	// leaves host exactly one day instance, so any choice co-locates).
	if len(l2.Instances) != 2 {
		t.Fatalf("counter-phased arrival got its own leaf: %v", l2.Instances)
	}
}

// TestOnlineResync: after instances are moved between leaves behind the
// placer's back (the Remap tick), Resync on the touched leaves must bring
// leaf lookups and path aggregates back in line with a fresh bottom-up
// aggregation, bit for bit — without rebuilding the untouched leaves.
func TestOnlineResync(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 5}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}

	// Find two leaves with residents and swap their first instances, the way
	// Remap mutates the tree directly.
	var withResidents []*powertree.Node
	for _, leaf := range tree.Leaves() {
		if len(leaf.Instances) > 0 {
			withResidents = append(withResidents, leaf)
		}
	}
	if len(withResidents) < 2 {
		t.Fatal("fixture placed fewer than two occupied leaves")
	}
	la, lb := withResidents[0], withResidents[1]
	ia, ib := la.Instances[0], lb.Instances[0]
	if !la.Detach(ia) || !lb.Detach(ib) {
		t.Fatal("detach failed")
	}
	if err := la.Attach(ib); err != nil {
		t.Fatal(err)
	}
	if err := lb.Attach(ia); err != nil {
		t.Fatal(err)
	}

	if err := o.Resync(la, lb); err != nil {
		t.Fatal(err)
	}
	if leaf, ok := o.Leaf(ia); !ok || leaf != lb {
		t.Fatalf("after resync, %q maps to %v, want %q", ia, leaf, lb.Name)
	}
	if leaf, ok := o.Leaf(ib); !ok || leaf != la {
		t.Fatalf("after resync, %q maps to %v, want %q", ib, leaf, la.Name)
	}
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(n *powertree.Node) {
		if got, want := o.Aggregates().Peak(n), aggs.Peak(n); got != want {
			t.Errorf("node %q resynced peak %v, fresh %v", n.Name, got, want)
		}
	})

	// The placer stays fully operational: retire a moved instance, readmit.
	if leaf, err := o.Retire(ia); err != nil || leaf != lb {
		t.Fatalf("retire moved instance: leaf=%v err=%v", leaf, err)
	}
	if _, err := o.Admit(Instance{ID: ia}); err != nil {
		t.Fatalf("readmit after resync: %v", err)
	}

	// Resyncing an untouched leaf is an idempotent no-op.
	if err := o.Resync(withResidents[len(withResidents)-1]); err != nil {
		t.Fatal(err)
	}

	// Foreign or interior nodes are rejected before any state changes.
	other, err := powertree.Build(powertree.TopologySpec{
		Name: "other", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Resync(other.Leaves()[0]); err == nil {
		t.Fatal("resync accepted a foreign leaf")
	}
	if err := o.Resync(tree); err == nil {
		t.Fatal("resync accepted an interior node")
	}
	if err := o.Resync(nil); err == nil {
		t.Fatal("resync accepted nil")
	}
}

// TestOnlineHistoryIndependent is the single-ledger invariant: after any
// seeded admit / retire / resync sequence, every node's aggregate trace and
// used-capacity vector in the long-lived placer equal, bit for bit, those of
// a placer freshly built over the same tree — at workers 1 and 8.
func TestOnlineHistoryIndependent(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		t.Setenv(parallel.EnvWorkers, workers)
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(900 + seed))
			instances, traces, tree := testFixture(t)
			tree.Walk(func(n *powertree.Node) { n.Capacities = powertree.ResourceVector{"gpu": 1e6} })
			demands := make(map[string]powertree.ResourceVector)
			for _, inst := range instances {
				if rng.Intn(3) > 0 {
					// Thirds are not exactly representable, so an adjusted
					// (add/subtract) ledger would drift from a re-summed one.
					demands[inst.ID] = powertree.ResourceVector{"gpu": float64(1+rng.Intn(4)) / 3}
				}
			}
			cfg := PolicyConfig{Kind: PolicyRandom, Seed: seed, Demands: func(id string) (powertree.ResourceVector, bool) {
				d, ok := demands[id]
				return d, ok
			}}
			o, err := NewOnline(tree, traces, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var placed []string
			for step := 0; step < 120; step++ {
				switch k := rng.Intn(4); {
				case k <= 1 && len(placed) < len(instances): // admit the next arrival
					inst := instances[len(placed)]
					if _, err := o.Admit(inst); err != nil {
						t.Fatalf("seed %d step %d: admit: %v", seed, step, err)
					}
					placed = append(placed, inst.ID)
				case k == 2 && len(placed) > 1: // retire a resident, readmit it at the end
					i := rng.Intn(len(placed))
					id := placed[i]
					if _, err := o.Retire(id); err != nil {
						t.Fatalf("seed %d step %d: retire: %v", seed, step, err)
					}
					if _, err := o.Admit(Instance{ID: id}); err != nil {
						t.Fatalf("seed %d step %d: readmit: %v", seed, step, err)
					}
				case k == 3 && len(placed) > 1: // move a resident behind the placer's back
					id := placed[rng.Intn(len(placed))]
					from, _ := o.Leaf(id)
					leaves := tree.Leaves()
					to := leaves[rng.Intn(len(leaves))]
					from.Detach(id)
					if err := to.Attach(id); err != nil {
						t.Fatal(err)
					}
					if err := o.Resync(from, to); err != nil {
						t.Fatalf("seed %d step %d: resync: %v", seed, step, err)
					}
				}
				fresh, err := NewOnline(tree, traces, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, want := o.Aggregates(), fresh.Aggregates()
				tree.Walk(func(n *powertree.Node) {
					gt, _ := got.Trace(n)
					wt, _ := want.Trace(n)
					if !reflect.DeepEqual(gt.Values, wt.Values) || got.Peak(n) != want.Peak(n) {
						t.Fatalf("workers %s seed %d step %d: aggregate at %q differs from a fresh placer's", workers, seed, step, n.Name)
					}
					if !reflect.DeepEqual(o.Used(n), fresh.Used(n)) {
						t.Fatalf("workers %s seed %d step %d: used at %q = %v, fresh %v", workers, seed, step, n.Name, o.Used(n), fresh.Used(n))
					}
				})
			}
		}
	}
}
