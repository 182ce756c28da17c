package capping

import (
	"math/rand"
	"testing"

	"repro/internal/powertree"
)

// effectivePower applies a set of throttles to raw instance powers and
// returns the resulting per-instance draw.
func effectivePower(raw map[string]float64, throttles []Throttle) map[string]float64 {
	out := make(map[string]float64, len(raw))
	for id, p := range raw {
		out[id] = p
	}
	for _, t := range throttles {
		if cur, ok := out[t.InstanceID]; ok && t.TargetPower < cur {
			out[t.InstanceID] = t.TargetPower
		}
	}
	return out
}

// buildTree makes a 2-leaf tree with the given leaf budget and attaches the
// instances.
func buildTree(t *testing.T, leafBudget float64, perLeaf [][]string) *powertree.Node {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "cap", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: len(perLeaf),
		LeafBudget: leafBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ids := range perLeaf {
		for _, id := range ids {
			if err := tree.Leaves()[i].Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tree
}

func reader(states map[string]InstanceState) Reader {
	return func(id string) (InstanceState, bool) {
		st, ok := states[id]
		return st, ok
	}
}

func TestNewNilTree(t *testing.T) {
	if _, err := New(nil, Config{}); err != ErrNilTree {
		t.Fatalf("nil tree: %v", err)
	}
}

func TestNoCapUnderBudget(t *testing.T) {
	tree := buildTree(t, 100, [][]string{{"a", "b"}})
	ctrl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]InstanceState{
		"a": {Power: 40, MinPower: 10, Priority: PriorityLC},
		"b": {Power: 50, MinPower: 10, Priority: PriorityBatch},
	}
	throttles, events, err := ctrl.Step(reader(states))
	if err != nil {
		t.Fatal(err)
	}
	if len(throttles) != 0 || len(events) != 0 {
		t.Fatalf("under budget: %v %v", throttles, events)
	}
}

func TestCapArmsAndShedsBatchFirst(t *testing.T) {
	tree := buildTree(t, 100, [][]string{{"lc", "batch", "backend"}})
	ctrl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]InstanceState{
		"lc":      {Power: 60, MinPower: 20, Priority: PriorityLC},
		"batch":   {Power: 50, MinPower: 15, Priority: PriorityBatch},
		"backend": {Power: 30, MinPower: 15, Priority: PriorityBackend},
	}
	// 140 W on a 100 W leaf: must shed 140 − 98 = 42 W, batch first (35
	// available), then backend (7 of 15).
	throttles, events, err := ctrl.Step(reader(states))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || !events[0].Armed {
		t.Fatalf("cap should arm: %v", events)
	}
	if len(throttles) != 2 {
		t.Fatalf("throttles: %+v", throttles)
	}
	if throttles[0].InstanceID != "batch" || throttles[0].TargetPower != 15 {
		t.Fatalf("batch must shed first to its floor: %+v", throttles[0])
	}
	if throttles[1].InstanceID != "backend" {
		t.Fatalf("backend must shed second: %+v", throttles[1])
	}
	for _, tr := range throttles {
		if tr.InstanceID == "lc" {
			t.Fatal("LC must not shed while batch/backend headroom remains")
		}
	}
	// Post-throttle draw ≤ cap target.
	eff := effectivePower(map[string]float64{"lc": 60, "batch": 50, "backend": 30}, throttles)
	var total float64
	for _, p := range eff {
		total += p
	}
	if total > 98+1e-9 {
		t.Fatalf("post-cap draw %v above target", total)
	}
}

func TestCapShedsLCLast(t *testing.T) {
	tree := buildTree(t, 50, [][]string{{"lc", "batch"}})
	ctrl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]InstanceState{
		"lc":    {Power: 60, MinPower: 20, Priority: PriorityLC},
		"batch": {Power: 30, MinPower: 10, Priority: PriorityBatch},
	}
	throttles, _, err := ctrl.Step(reader(states))
	if err != nil {
		t.Fatal(err)
	}
	// 90 W on 50 W: need 41; batch gives 20, LC must give 21.
	var lcShed, batchShed float64
	for _, tr := range throttles {
		switch tr.InstanceID {
		case "lc":
			lcShed = tr.Shed
		case "batch":
			batchShed = tr.Shed
		}
	}
	if batchShed != 20 {
		t.Fatalf("batch shed = %v, want its full 20", batchShed)
	}
	if lcShed <= 0 {
		t.Fatal("LC must shed once batch is exhausted")
	}
}

func TestSustainWindow(t *testing.T) {
	tree := buildTree(t, 100, [][]string{{"a"}})
	ctrl, err := New(tree, Config{SustainSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]InstanceState{"a": {Power: 150, MinPower: 10, Priority: PriorityBatch}}
	for i := 0; i < 2; i++ {
		throttles, events, err := ctrl.Step(reader(states))
		if err != nil {
			t.Fatal(err)
		}
		if len(throttles) != 0 || len(events) != 0 {
			t.Fatalf("step %d: cap fired before sustain window", i)
		}
	}
	throttles, events, err := ctrl.Step(reader(states))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(throttles) == 0 {
		t.Fatal("cap must fire after sustain window")
	}
	// A dip below budget resets the counter.
	ctrl2, _ := New(tree, Config{SustainSteps: 2})
	over := map[string]InstanceState{"a": {Power: 150, MinPower: 10}}
	under := map[string]InstanceState{"a": {Power: 50, MinPower: 10}}
	_, _, _ = ctrl2.Step(reader(over))
	_, _, _ = ctrl2.Step(reader(under))
	_, events2, _ := ctrl2.Step(reader(over))
	if len(events2) != 0 {
		t.Fatal("dip below budget must reset the sustain counter")
	}
}

func TestReleaseHysteresis(t *testing.T) {
	tree := buildTree(t, 100, [][]string{{"a"}})
	ctrl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	over := map[string]InstanceState{"a": {Power: 120, MinPower: 10, Priority: PriorityBatch}}
	if _, _, err := ctrl.Step(reader(over)); err != nil {
		t.Fatal(err)
	}
	if !ctrl.armed[tree.Leaves()[0].Name] {
		t.Fatal("cap should be armed")
	}
	// Draw at 96: under budget but above the 95 release line → stays armed.
	mid := map[string]InstanceState{"a": {Power: 96, MinPower: 10, Priority: PriorityBatch}}
	if _, _, err := ctrl.Step(reader(mid)); err != nil {
		t.Fatal(err)
	}
	if !ctrl.armed[tree.Leaves()[0].Name] {
		t.Fatal("cap must hold until the release line")
	}
	low := map[string]InstanceState{"a": {Power: 80, MinPower: 10, Priority: PriorityBatch}}
	_, events, err := ctrl.Step(reader(low))
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.armed[tree.Leaves()[0].Name] {
		t.Fatal("cap must release below the line")
	}
	found := false
	for _, e := range events {
		if !e.Armed {
			found = true
		}
	}
	if !found {
		t.Fatal("release event missing")
	}
}

func TestAncestorSeesDescendantRelief(t *testing.T) {
	// Two leaves each over their own budget; the parent is sized so that
	// after the leaves shed, it needs no shedding of its own.
	tree := buildTree(t, 100, [][]string{{"a"}, {"b"}})
	ctrl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]InstanceState{
		"a": {Power: 130, MinPower: 20, Priority: PriorityBatch},
		"b": {Power: 130, MinPower: 20, Priority: PriorityBatch},
	}
	throttles, _, err := ctrl.Step(reader(states))
	if err != nil {
		t.Fatal(err)
	}
	// One directive per instance, from the leaf caps; the root (budget 200)
	// is satisfied by the leaf-level relief (2 × 98 = 196 < 200).
	if len(throttles) != 2 {
		t.Fatalf("throttles: %+v", throttles)
	}
	for _, tr := range throttles {
		if tr.TargetPower > 98+1e-9 {
			t.Fatalf("leaf target too high: %+v", tr)
		}
	}
}

func TestMissingInstanceState(t *testing.T) {
	tree := buildTree(t, 100, [][]string{{"ghost"}})
	ctrl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.Step(reader(nil)); err == nil {
		t.Fatal("missing state must error")
	}
}

func TestPriorityString(t *testing.T) {
	if PriorityLC.String() != "LC" || PriorityBatch.String() != "Batch" ||
		PriorityBackend.String() != "Backend" || Priority(9).String() == "" {
		t.Fatal("Priority.String broken")
	}
}

// Property: after applying the controller's throttles, no node's effective
// draw exceeds its budget (when floors permit), and no instance is pushed
// below its floor.
func TestCappingSafetyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nLeaves := rng.Intn(3) + 1
		perLeaf := make([][]string, nLeaves)
		states := make(map[string]InstanceState)
		raw := make(map[string]float64)
		var floorTotal float64
		id := 0
		for l := range perLeaf {
			n := rng.Intn(4) + 1
			for k := 0; k < n; k++ {
				name := string(rune('a'+l)) + string(rune('0'+k))
				perLeaf[l] = append(perLeaf[l], name)
				p := rng.Float64() * 80
				st := InstanceState{
					Power:    p,
					MinPower: p * rng.Float64() * 0.5,
					Priority: Priority(rng.Intn(3)),
				}
				states[name] = st
				raw[name] = p
				floorTotal += st.MinPower
				id++
			}
		}
		tree := buildTree(t, 100, perLeaf)
		ctrl, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		throttles, _, err := ctrl.Step(reader(states))
		if err != nil {
			t.Fatal(err)
		}
		eff := effectivePower(raw, throttles)
		for name, p := range eff {
			if p < states[name].MinPower-1e-9 {
				t.Fatalf("trial %d: instance %s below floor: %v < %v", trial, name, p, states[name].MinPower)
			}
		}
		for i, leaf := range tree.Leaves() {
			var draw, floor float64
			for _, name := range perLeaf[i] {
				draw += eff[name]
				floor += states[name].MinPower
			}
			if draw > leaf.Budget+1e-9 && draw > floor+1e-9 {
				t.Fatalf("trial %d: leaf %d still over budget: %v > %v (floor %v)", trial, i, draw, leaf.Budget, floor)
			}
		}
	}
}
