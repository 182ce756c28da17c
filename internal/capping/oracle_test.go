package capping

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/powertree"
)

// mapController is StepWithBudgets as it was before the slab: per-instance
// states and effective draws in ID-keyed maps, nodes ordered by a separate
// depth sort, and each interior node's instances re-listed with
// AllInstances. It is the oracle the slab step is compared against.
type mapController struct {
	cfg       Config
	tree      *powertree.Node
	overCount map[string]int
	armed     map[string]bool
}

func newMapController(tree *powertree.Node, cfg Config) *mapController {
	return &mapController{cfg: cfg, tree: tree, overCount: make(map[string]int), armed: make(map[string]bool)}
}

func (c *mapController) stepWithBudgets(read Reader, budget func(node string) (float64, bool)) ([]Throttle, []Event, error) {
	var throttles []Throttle
	var events []Event
	effective := make(map[string]float64)
	states := make(map[string]InstanceState)
	for _, id := range c.tree.AllInstances() {
		st, ok := read(id)
		if !ok {
			return nil, nil, fmt.Errorf("capping: no state for instance %q", id)
		}
		states[id] = st
		effective[id] = st.Power
	}
	for _, nd := range nodesByDepth(c.tree) {
		ids := nd.Instances
		if !nd.IsLeaf() {
			ids = nd.AllInstances()
		}
		if len(ids) == 0 {
			continue
		}
		var draw float64
		for _, id := range ids {
			draw += effective[id]
		}
		nodeBudget := nd.Budget
		if budget != nil {
			if b, ok := budget(nd.Name); ok {
				nodeBudget = b
			}
		}
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
		need := draw - nodeBudget*capFraction
		if need <= 0 {
			continue
		}
		order := append([]string(nil), ids...)
		sort.SliceStable(order, func(a, b int) bool {
			pa, pb := states[order[a]].Priority, states[order[b]].Priority
			if pa != pb {
				return pa > pb
			}
			return effective[order[a]] > effective[order[b]]
		})
		for _, id := range order {
			if need <= 0 {
				break
			}
			st := states[id]
			avail := effective[id] - st.MinPower
			if avail <= 0 {
				continue
			}
			shed := avail
			if shed > need {
				shed = need
			}
			newPower := effective[id] - shed
			effective[id] = newPower
			need -= shed
			throttles = append(throttles, Throttle{InstanceID: id, Node: nd.Name, TargetPower: newPower, Shed: shed, Priority: st.Priority})
		}
	}
	return mergeThrottles(throttles), events, nil
}

// nodesByDepth returns the tree's nodes ordered leaves-first.
func nodesByDepth(root *powertree.Node) []*powertree.Node {
	type depthNode struct {
		n     *powertree.Node
		depth int
	}
	var all []depthNode
	var walk func(n *powertree.Node, d int)
	walk = func(n *powertree.Node, d int) {
		all = append(all, depthNode{n, d})
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	walk(root, 0)
	sort.SliceStable(all, func(i, j int) bool { return all[i].depth > all[j].depth })
	out := make([]*powertree.Node, len(all))
	for i, dn := range all {
		out[i] = dn.n
	}
	return out
}

// randomCapTree builds a tree of uneven depth (leaves anywhere from depth 1
// to 4) with 0–5 instances per leaf, now and then an instance hosted on an
// interior node, and budgets that leave some nodes over and some under.
func randomCapTree(rng *rand.Rand) (*powertree.Node, []*powertree.Node) {
	var nodes []*powertree.Node
	inst := 0
	var build func(depth int) *powertree.Node
	build = func(depth int) *powertree.Node {
		n := &powertree.Node{Name: fmt.Sprintf("n%d", len(nodes)), Level: powertree.Level(depth)}
		nodes = append(nodes, n)
		if depth == 0 || (depth < 4 && rng.Intn(3) > 0) {
			var sum float64
			for k := 1 + rng.Intn(3); k > 0; k-- {
				c := build(depth + 1)
				n.Children = append(n.Children, c)
				sum += c.Budget
			}
			if rng.Intn(8) == 0 {
				n.Instances = append(n.Instances, fmt.Sprintf("i%d", inst))
				inst++
				sum += 40
			}
			n.Budget = sum * (0.7 + 0.5*rng.Float64())
			return n
		}
		k := rng.Intn(6)
		for j := 0; j < k; j++ {
			n.Instances = append(n.Instances, fmt.Sprintf("i%d", inst))
			inst++
		}
		n.Budget = float64(10*(k+1)) * (2 + 5*rng.Float64())
		return n
	}
	return build(0), nodes
}

// TestSlabStepMatchesMapOracle drives the slab step and the map oracle
// through the same random trees and steps — uneven depths, instances on an
// interior node, budget overrides, sustain and release hysteresis, mixed
// priorities, tied draws and the odd missing state — and requires the same
// throttles, events, errors and armed set at every step.
func TestSlabStepMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		tree, nodes := randomCapTree(rng)
		cfg := Config{SustainSteps: rng.Intn(3)}
		slab, err := New(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newMapController(tree, cfg)
		ids := tree.AllInstances()
		for step := 0; step < 6; step++ {
			states := make(map[string]InstanceState, len(ids))
			for _, id := range ids {
				// A coarse power grid makes tied draws common.
				p := float64(10 * (1 + rng.Intn(8)))
				states[id] = InstanceState{Power: p, MinPower: p * float64(rng.Intn(3)) / 4, Priority: Priority(rng.Intn(3))}
			}
			if len(ids) > 0 && rng.Intn(20) == 0 {
				delete(states, ids[rng.Intn(len(ids))])
			}
			var budget powertree.BudgetOverlay
			if rng.Intn(2) == 0 {
				reduced := make(map[string]float64)
				for _, n := range nodes {
					if rng.Intn(4) == 0 {
						reduced[n.Name] = n.Budget * (0.3 + 0.7*rng.Float64())
					}
				}
				budget = func(node string) (float64, bool) {
					b, ok := reduced[node]
					return b, ok
				}
			}
			gotT, gotE, gotErr := slab.StepWithBudgets(reader(states), budget)
			wantT, wantE, wantErr := oracle.stepWithBudgets(reader(states), budget)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d step %d: err %v, oracle %v", trial, step, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotT, wantT) {
				t.Fatalf("trial %d step %d: throttles\n got %+v\nwant %+v", trial, step, gotT, wantT)
			}
			if !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("trial %d step %d: events\n got %+v\nwant %+v", trial, step, gotE, wantE)
			}
			for _, n := range nodes {
				if slab.armed[n.Name] != oracle.armed[n.Name] {
					t.Fatalf("trial %d step %d: node %s armed %v, oracle %v", trial, step, n.Name, slab.armed[n.Name], oracle.armed[n.Name])
				}
			}
		}
	}
}
