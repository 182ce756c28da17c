package capping

import (
	"testing"

	"repro/internal/powertree"
)

// budgetTree builds a one-leaf tree with two instances and a 1000 W budget.
func budgetTree(t *testing.T) *powertree.Node {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves()[0]
	for _, id := range []string{"a", "b"} {
		if err := leaf.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func steadyReader(power float64) Reader {
	return func(string) (InstanceState, bool) {
		return InstanceState{Power: power, MinPower: power / 2, Priority: PriorityBatch}, true
	}
}

func TestStepWithBudgetsOverrideArmsAndSheds(t *testing.T) {
	tree := budgetTree(t)
	ctl, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves()[0].Name

	// 800 W draw under a 1000 W budget: nothing to do.
	throttles, events, err := ctl.Step(steadyReader(400))
	if err != nil {
		t.Fatal(err)
	}
	if len(throttles) != 0 || len(events) != 0 {
		t.Fatalf("clean step acted: %d throttles, %d events", len(throttles), len(events))
	}

	// Same draw against a tripped leaf running at half budget: the cap arms
	// and sheds down to the 500*0.98 target.
	override := func(node string) (float64, bool) {
		if node == leaf {
			return 500, true
		}
		return 0, false
	}
	throttles, events, err = ctl.StepWithBudgets(steadyReader(400), override)
	if err != nil {
		t.Fatal(err)
	}
	if !ctl.armed[leaf] {
		t.Fatal("override did not arm the tripped leaf")
	}
	if len(events) == 0 || !events[0].Armed {
		t.Fatalf("events = %+v, want an arm", events)
	}
	var shed float64
	for _, th := range throttles {
		shed += th.Shed
	}
	if want := 800 - 500*0.98; shed < want-1e-9 {
		t.Fatalf("shed %v, want ≥ %v", shed, want)
	}

	// Trip clears: full budget back, the cap releases.
	_, events, err = ctl.Step(steadyReader(400))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.armed[leaf] {
		t.Fatal("cap still armed after the trip cleared")
	}
	released := false
	for _, ev := range events {
		if ev.Node == leaf && !ev.Armed {
			released = true
		}
	}
	if !released {
		t.Fatalf("no release event after trip cleared: %+v", events)
	}
}

func TestStepWithBudgetsNilMatchesStep(t *testing.T) {
	mk := func() *Controller {
		ctl, err := New(budgetTree(t), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	a, b := mk(), mk()
	for _, power := range []float64{400, 600, 700, 300, 300} {
		ta, ea, erra := a.Step(steadyReader(power))
		tb, eb, errb := b.StepWithBudgets(steadyReader(power), nil)
		if (erra == nil) != (errb == nil) || len(ta) != len(tb) || len(ea) != len(eb) {
			t.Fatalf("Step and StepWithBudgets(nil) diverged at %v W", power)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("throttle %d diverged: %+v vs %+v", i, ta[i], tb[i])
			}
		}
	}
}

func TestInstanceLeaves(t *testing.T) {
	tree := budgetTree(t)
	got := tree.InstanceLeaves()
	leaf := tree.Leaves()[0].Name
	if len(got) != 2 || got["a"] != leaf || got["b"] != leaf {
		t.Fatalf("InstanceLeaves = %v", got)
	}
	if n := len((&powertree.Node{Name: "empty"}).InstanceLeaves()); n != 0 {
		t.Fatalf("empty tree mapped %d instances", n)
	}
}
