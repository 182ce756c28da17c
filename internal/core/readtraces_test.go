package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// degradedFleetFixture is runtimeFixtureFor's fleet streamed into a store
// that rejects impulses, with each instance's telemetry degraded by a
// seeded pattern: mostly missing (quarantined), gappy, spiking, dark in the
// held-out week, or clean. It returns the runtime, the fleet's instances and
// the end of the two training weeks.
func degradedFleetFixture(t *testing.T, workers int) (*Runtime, []placement.Instance, time.Time) {
	t.Helper()
	dc, err := workload.StandardDCConfig(workload.DC2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dc.Gen.Step = time.Hour
	fleet, tree, err := workload.BuildDC(dc)
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: 4 * 7 * 24 * time.Hour, RejectImpulses: true})
	rt, err := NewRuntime(New(Config{TopServices: 8, Seed: 1, Workers: workers}), store, tree, RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	trainEnd := fleet.Instances[0].Trace.Start.Add(2 * 7 * 24 * time.Hour)
	instances := make([]placement.Instance, len(fleet.Instances))
	for k, inst := range fleet.Instances {
		instances[k] = placement.Instance{ID: inst.ID, Service: inst.Service}
		rng := rand.New(rand.NewSource(int64(k)))
		for j, v := range inst.Trace.Values {
			at := inst.Trace.TimeAt(j)
			switch k % 6 {
			case 0:
				if rng.Float64() < 0.6 {
					continue
				}
			case 1:
				if rng.Float64() < 0.15 {
					continue
				}
			case 2:
				if rng.Float64() < 0.03 {
					v *= 6
				}
			case 3:
				if !at.Before(trainEnd) {
					continue
				}
			}
			if err := rt.Ingest(inst.ID, at, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rt, instances, trainEnd
}

// runtimeState renders what a read decides, down to the bits of every
// float: the tree, the quarantine list and every instance's quality.
func runtimeState(t *testing.T, rt *Runtime, ids []string) string {
	t.Helper()
	var b bytes.Buffer
	if err := rt.Tree().Save(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "quarantined %q\n", rt.Quarantined())
	for _, id := range ids {
		q, ok := rt.InstanceQuality(id)
		fmt.Fprintf(&b, "%s %v %x %x %d %d\n", id, ok, math.Float64bits(q.Coverage), math.Float64bits(q.InterpolatedFraction), q.Staleness, q.Grade)
	}
	return b.String()
}

// reportBits renders a drift report with every float as its bits.
func reportBits(rep *DriftReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %x %x %q\n", rep.WorstNode, math.Float64bits(rep.WorstScore), math.Float64bits(rep.SumOfPeaks), rep.Quarantined)
	for _, sw := range rep.Swaps {
		fmt.Fprintf(&b, "%s %s %s %s %x %x\n", sw.InstanceA, sw.InstanceB, sw.NodeA, sw.NodeB, math.Float64bits(sw.GainA), math.Float64bits(sw.GainB))
	}
	return b.String()
}

// TestReadTracesWorkersEquivalence pins Bootstrap, the admission view, the
// arrival's own read and Tick to the same traces, grades, quarantine lists
// and placements at one and at eight workers, on degraded telemetry and with
// a resident the store has never seen. The tick's drift report (worst leaf
// score, Σ leaf peaks, every swap's gain bits) and tree bytes must match
// too, so its parallel leaf scoring is checked against the serial one.
func TestReadTracesWorkersEquivalence(t *testing.T) {
	var runs [][]string
	for _, workers := range []int{1, 8} {
		rt, instances, trainEnd := degradedFleetFixture(t, workers)
		// Two instances are held out of Bootstrap and admitted later, and a
		// resident without telemetry joins it.
		late := instances[len(instances)-2:]
		residents := append(instances[:len(instances)-2:len(instances)-2], placement.Instance{ID: "ghost", Service: instances[0].Service})
		ids := []string{"ghost"}
		for _, inst := range instances {
			ids = append(ids, inst.ID)
		}
		var states []string
		if err := rt.Bootstrap(residents, trainEnd, 2); err != nil {
			t.Fatal(err)
		}
		states = append(states, runtimeState(t, rt, ids))
		// The first admission builds the admission view at the training
		// window; the second, after the tick, rebuilds it at the tick's time.
		leaf, err := rt.AdmitInstance(late[0].ID, late[0].Service, trainEnd, 2)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, leaf, runtimeState(t, rt, ids))
		rep, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Quarantined) == 0 {
			t.Fatal("the tick quarantined nothing: the fixture no longer degrades telemetry")
		}
		if len(rep.Swaps) == 0 {
			t.Fatal("the tick swapped nothing: its leaf scoring and remap go unchecked")
		}
		states = append(states, reportBits(rep), runtimeState(t, rt, ids))
		if leaf, err = rt.AdmitInstance(late[1].ID, late[1].Service, time.Time{}, 2); err != nil {
			t.Fatal(err)
		}
		states = append(states, leaf, runtimeState(t, rt, ids))
		runs = append(runs, states)
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("step %d differs between workers 1 and 8:\n%s\n%s", i, runs[0][i], runs[1][i])
		}
	}
}

// TestReadTracesNamesFirstFailure: when several instances' reads fail, the
// error names the first of them in the batch's order, at any worker count.
// A two-week step leaves no whole week to fold, so every instance with a
// reading in the training window fails; one without grades no-data.
func TestReadTracesNamesFirstFailure(t *testing.T) {
	const week = 7 * 24 * time.Hour
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	asOf := start.Add(8 * week)
	for _, workers := range []int{1, 8} {
		tree, err := powertree.Build(powertree.TopologySpec{
			Name: "f", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		store := tracestore.New(tracestore.Config{Step: 2 * week, Retention: 8 * week})
		rt, err := NewRuntime(New(Config{Workers: workers}), store, tree, RuntimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Ingest("dark", start, 100); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			if err := rt.Ingest(id, asOf.Add(-2*week), 100); err != nil {
				t.Fatal(err)
			}
		}
		_, _, foldErr := store.AveragedITraceQuality("b", asOf, 2)
		if foldErr == nil {
			t.Fatal("the fold of a two-week step must fail")
		}
		err = rt.Bootstrap([]placement.Instance{
			{ID: "dark", Service: "s"}, {ID: "b", Service: "s"}, {ID: "a", Service: "s"},
		}, asOf, 2)
		if want := fmt.Sprintf("core: bootstrap trace for %q: %v", "b", foldErr); err == nil || err.Error() != want {
			t.Fatalf("workers %d: %v, want %s", workers, err, want)
		}
		if rt.Placed() {
			t.Fatalf("workers %d: a failed read left the runtime placed", workers)
		}
	}
}

// TestTickReadsWhileIngesting races sensor ingest against ticks whose
// batch read runs on eight workers; run it under -race.
func TestTickReadsWhileIngesting(t *testing.T) {
	rt, instances, _, trainEnd := runtimeFixtureFor(t, Config{TopServices: 8, Seed: 1, Workers: 8}, RuntimeConfig{})
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; ; s++ {
			select {
			case <-done:
				return
			default:
			}
			inst := instances[s%len(instances)]
			at := trainEnd.Add(time.Duration(s%(7*24)) * time.Hour)
			if err := rt.Ingest(inst.ID, at, 50+float64(s%40)); err != nil && !errors.Is(err, tracestore.ErrStale) {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
