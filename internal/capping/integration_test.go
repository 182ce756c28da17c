package capping

import (
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// injectBurst returns a copy of the trace with draw multiplied by
// (1+magnitude) over [at, at+duration) — a traffic burst (e.g. a neighbour
// datacenter failing over, §3.3).
func injectBurst(tr timeseries.Series, at time.Time, duration time.Duration, magnitude float64) timeseries.Series {
	out := tr.Clone()
	factor := 1 + magnitude
	end := at.Add(duration)
	for i := range out.Values {
		if ts := out.TimeAt(i); !ts.Before(at) && ts.Before(end) {
			out.Values[i] *= factor
		}
	}
	return out
}

// TestBurstSharingAcrossPlacements verifies §3.2's safety argument with the
// capping runtime in the loop: when a traffic burst hits the latency-
// critical tier, the oblivious placement concentrates the surge on the few
// nodes hosting LC instances (arming caps there), while the workload-aware
// placement shares the surge across all nodes ("the sudden load change is
// now shared among all the power nodes"), needing fewer and smaller
// interventions.
func TestBurstSharingAcrossPlacements(t *testing.T) {
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 24, "dbA": 12, "hadoop": 12},
		Start: start, Step: 30 * time.Minute, Weeks: 1,
		PhaseJitterHours: 1.5, AmplitudeSigma: 0.15, NoiseSigma: 0.01, Seed: 17,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	// Burst: +60% LC draw for 4 hours on Tuesday afternoon.
	burstAt := start.Add(24*time.Hour + 14*time.Hour)
	traces := make(map[string]timeseries.Series, len(fleet.Instances))
	for _, inst := range fleet.Instances {
		tr := inst.Trace
		if inst.Class == workload.LatencyCritical {
			tr = injectBurst(tr, burstAt, 4*time.Hour, 0.6)
		}
		traces[inst.ID] = tr
	}

	build := func(placer placement.Placer) *powertree.Node {
		tree, err := powertree.Build(powertree.TopologySpec{
			Name: "burst", SuitesPerDC: 1, MSBsPerSuite: 2, SBsPerMSB: 1, RPPsPerSB: 3,
			LeafBudget: 8 * 310,
		})
		if err != nil {
			t.Fatal(err)
		}
		instances := make([]placement.Instance, len(fleet.Instances))
		for i, inst := range fleet.Instances {
			instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
		}
		// Place on pre-burst (clean) traces: the burst is unforeseen.
		if err := placer.Place(tree, instances, placement.TraceFn(fleet.PowerFn())); err != nil {
			t.Fatal(err)
		}
		// Tight budgets: the ideal share of the *clean* fleet peak.
		aggs, err := tree.AggregateAll(powertree.PowerFn(fleet.PowerFn()))
		if err != nil {
			t.Fatal(err)
		}
		perLeaf := 1.1 * aggs.Peak(tree) / float64(len(tree.Leaves()))
		var assign func(n *powertree.Node) float64
		assign = func(n *powertree.Node) float64 {
			if n.IsLeaf() {
				n.Budget = perLeaf
				return perLeaf
			}
			var sum float64
			for _, c := range n.Children {
				sum += assign(c)
			}
			n.Budget = sum
			return sum
		}
		assign(tree)
		return tree
	}

	countThrottles := func(tree *powertree.Node) (int, float64) {
		ctrl, err := New(tree, Config{SustainSteps: 2})
		if err != nil {
			t.Fatal(err)
		}
		steps := fleet.Instances[0].Trace.Len()
		total, shed := 0, 0.0
		for step := 0; step < steps; step++ {
			read := func(id string) (InstanceState, bool) {
				tr, ok := traces[id]
				if !ok {
					return InstanceState{}, false
				}
				inst, _ := fleet.Instance(id)
				prio := PriorityBackend
				switch inst.Class {
				case workload.LatencyCritical:
					prio = PriorityLC
				case workload.Batch:
					prio = PriorityBatch
				}
				p := tr.Values[step]
				return InstanceState{Power: p, MinPower: p * 0.5, Priority: prio}, true
			}
			throttles, _, err := ctrl.Step(read)
			if err != nil {
				t.Fatal(err)
			}
			total += len(throttles)
			for _, th := range throttles {
				shed += th.Shed
			}
		}
		return total, shed
	}

	oblivious := build(placement.Oblivious{})
	smart := build(placement.WorkloadAware{TopServices: 3, Seed: 1})

	obThrottles, obShed := countThrottles(oblivious)
	smThrottles, smShed := countThrottles(smart)

	if obThrottles == 0 {
		t.Fatal("the burst should force capping on the oblivious placement")
	}
	if smThrottles >= obThrottles {
		t.Fatalf("burst sharing failed: smart %d throttles vs oblivious %d", smThrottles, obThrottles)
	}
	if smShed >= obShed {
		t.Fatalf("burst sharing failed: smart shed %v vs oblivious %v", smShed, obShed)
	}
}
