package placement

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/detmap"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// Trace kinds remapFuzzFleet draws from, selected by the bits of mix.
const (
	mixConstant   = 1 << iota // every constant trace draws 100 W: tied scores and differentials
	mixZeroPeak               // a trace that never draws power
	mixMisaligned             // a trace one slot longer than the rest, during the remap only
)

// mixSnap puts every trace on the scoring grid and none misaligned. Bits 3
// and 4 of mix, below it, pick the worker count.
const mixSnap = 1 << 5

// remapFuzzFleet draws a tree of 2–18 leaves holding 0, 1, 2 or (half the
// time) 3–10 residents each, with one-day traces at 30-minute step: diurnal ones (a
// sine of random phase and amplitude plus noise) and, as mix allows,
// constant, zero-peak and misaligned ones. The misaligned kind reads as a
// diurnal trace until the caller sets misaligned, because a placer's ledger
// refuses to sum misaligned traces: they reach Remap only through a TraceFn
// that changed after the placer was built. mixSnap puts every trace on the
// scoring grid, as the runtime's are, and leaves the misaligned kind out:
// a stale ledger's sum is not the sum of the traces Remap reads. With tight
// set, every instance demands 1–4 gpu and each leaf holds one gpu more than
// it starts with.
func remapFuzzFleet(t *testing.T, seed int64, mix uint8, tight bool) (*powertree.Node, *fuzzTraces, DemandFn, func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "r", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1 + rng.Intn(3), RPPsPerSB: 1 + rng.Intn(6),
		LeafBudget: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves()) < 2 {
		if tree, err = powertree.Build(powertree.TopologySpec{
			Name: "r", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1e9,
		}); err != nil {
			t.Fatal(err)
		}
	}
	const slots = 48
	traces := &fuzzTraces{m: make(map[string]timeseries.Series)}
	traces.fn = func(id string) (timeseries.Series, bool) {
		s, ok := traces.m[id]
		return s, ok
	}
	gpus := make(map[string]powertree.ResourceVector)
	misaligned := make(map[string]timeseries.Series)
	// A leaf's residents mostly share one of four phases, as a fleet
	// placed by service would: fragmented leaves with improving swaps.
	diurnal := func(leaf int) timeseries.Series {
		tr := timeseries.Zeros(t0, 30*time.Minute, slots)
		cluster := leaf
		if rng.Intn(4) == 0 {
			cluster = rng.Intn(4)
		}
		phase, amp := math.Pi/2*float64(cluster%4)+0.3*rng.NormFloat64(), 20+80*rng.Float64()
		for j := range tr.Values {
			tr.Values[j] = max(1, 150+amp*math.Sin(2*math.Pi*float64(j)/slots+phase)+5*rng.NormFloat64())
		}
		return tr
	}
	for li, leaf := range tree.Leaves() {
		n := []int{0, 1, 2, 3 + rng.Intn(8), 3 + rng.Intn(8), 3 + rng.Intn(8)}[rng.Intn(6)]
		for k := 0; k < n; k++ {
			id := fmt.Sprintf("r%d-%d", li, k)
			tr := diurnal(li)
			switch kind := rng.Intn(10); {
			case kind < 2 && mix&mixConstant != 0:
				tr = timeseries.Zeros(t0, 30*time.Minute, slots)
				for j := range tr.Values {
					tr.Values[j] = 100
				}
			case kind == 2 && mix&mixZeroPeak != 0:
				tr = timeseries.Zeros(t0, 30*time.Minute, slots)
			case kind == 3 && mix&mixMisaligned != 0 && mix&mixSnap == 0:
				misaligned[id] = timeseries.Zeros(t0, 30*time.Minute, slots+1)
				copy(misaligned[id].Values, tr.Values)
			}
			if mix&mixSnap != 0 {
				timeseries.SnapAll(tr.Values)
			}
			traces.m[id] = tr
			gpus[id] = powertree.ResourceVector{"gpu": float64(1 + rng.Intn(4))}
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	var demands DemandFn
	if tight {
		demands = func(id string) (powertree.ResourceVector, bool) {
			d, ok := gpus[id]
			return d, ok
		}
		for _, leaf := range tree.Leaves() {
			used := 0.0
			for _, id := range leaf.Instances {
				used += gpus[id].Get("gpu")
			}
			leaf.Capacities = powertree.ResourceVector{"gpu": used + 1}
		}
	}
	misalign := func() {
		for id, tr := range misaligned {
			traces.m[id] = tr
		}
	}
	return tree, traces, demands, misalign
}

// FuzzRemapMatchesReference runs Online.Remap, on 1–4 workers, on
// remapFuzzFleet trees and requires remapReference's swaps (instances,
// leaves and gain bits), final placement, tried-pair count and
// exactly-scored-pair count; the reference also fails if a pair's bound
// lies below its differential. Under mixSnap the reference sums each
// resident's peers afresh, so the leave-one-out difference must be exact.
// Remap scores the leaves itself: it must fail wherever
// LevelAsynchronyFrom over the placer's Aggregates fails (a
// zero-peak resident sharing its leaf), as the reference does, and
// otherwise report LevelAsynchronyFrom's lowest score, at the lowest leaf
// name among ties, as the worst leaf. Zero-peak residents alone on their
// leaf and misaligned residents take part in the search.
func FuzzRemapMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed%8), seed%3 == 0, uint8(seed*5))
	}
	// A misaligned resident leaves the worst leaf, and the ledger's refold
	// of its new leaf fails.
	f.Add(int64(44), uint8(0x14), false, uint8(0x16))
	for seed := int64(12); seed < 24; seed++ {
		f.Add(seed, uint8(seed%8)|mixSnap, seed%3 == 0, uint8(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed int64, mix uint8, tight bool, maxSwaps uint8) {
		cfg := RemapConfig{MaxSwaps: int(maxSwaps % 40)}
		tree, traces, demands, misalign := remapFuzzFleet(t, seed, mix, tight)
		cfg.Policy.Demands = demands
		o, err := NewOnline(tree, traces.fn, PolicyConfig{Demands: demands})
		if err != nil {
			t.Fatal(err)
		}
		builtTraces := maps.Clone(traces.m)
		built := TraceFn(func(id string) (timeseries.Series, bool) {
			s, ok := builtTraces[id]
			return s, ok
		})
		misalign()
		scores, scoreErr := LevelAsynchronyFrom(o.Aggregates(), powertree.RPP, traces.fn, 1)
		refTree := tree.Clone()
		want, wantAttempted, wantScored, wantErr := remapReference(refTree, built, traces.fn, cfg, mix&mixSnap != 0)
		attempted, scored := obsSwapsAttempted.Value(), obsPairsScored.Value()
		worst, worstScore, got, err := o.Remap(math.Inf(1), 1+int(mix>>3)%4, cfg.MaxSwaps)
		if (err == nil) != (wantErr == nil) || (scoreErr != nil && err == nil) {
			t.Fatalf("Remap err %v, reference err %v, LevelAsynchronyFrom err %v", err, wantErr, scoreErr)
		}
		if err != nil {
			return
		}
		wantWorst, wantWorstScore := "", math.Inf(1)
		for _, name := range detmap.SortedKeys(scores) {
			if s := scores[name]; s < wantWorstScore {
				wantWorst, wantWorstScore = name, s
			}
		}
		if worst != wantWorst || math.Float64bits(worstScore) != math.Float64bits(wantWorstScore) {
			t.Fatalf("worst leaf %q at %v, LevelAsynchronyFrom's %q at %v", worst, worstScore, wantWorst, wantWorstScore)
		}
		if n := obsSwapsAttempted.Value() - attempted; n != wantAttempted {
			t.Fatalf("%d pairs attempted, reference %d", n, wantAttempted)
		}
		if n := obsPairsScored.Value() - scored; n != wantScored {
			t.Fatalf("%d pairs scored, reference %d", n, wantScored)
		}
		if len(got) != len(want) {
			t.Fatalf("%d swaps, reference %d: %+v vs %+v", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] || math.Float64bits(got[i].GainA) != math.Float64bits(want[i].GainA) ||
				math.Float64bits(got[i].GainB) != math.Float64bits(want[i].GainB) {
				t.Fatalf("swap %d: %+v, reference %+v", i, got[i], want[i])
			}
		}
		if !slices.Equal(tree.AllInstances(), refTree.AllInstances()) {
			t.Fatal("placements diverged")
		}
	})
}

// TestRemapScoresFewPairs: on diurnal traces at the end-to-end benchmark's
// shape (640 leaves, 10 000 residents) the bounds leave at most a tenth of
// the tried pairs to an exact differential, and the swaps are still the
// reference's.
func TestRemapScoresFewPairs(t *testing.T) {
	tree, traces := diurnalFixture(t, 10_000)
	cfg := RemapConfig{MaxSwaps: 24}
	want, wantAttempted, wantScored, err := remapReference(tree.Clone(), traces, traces, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	attempted, scored := obsSwapsAttempted.Value(), obsPairsScored.Value()
	got, err := Remap(tree, traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	attempted, scored = obsSwapsAttempted.Value()-attempted, obsPairsScored.Value()-scored
	if attempted != wantAttempted || scored != wantScored || !slices.Equal(got, want) {
		t.Fatalf("%d swaps, %d pairs tried, %d scored; reference %d, %d, %d", len(got), attempted, scored, len(want), wantAttempted, wantScored)
	}
	if len(got) == 0 || 10*scored > attempted {
		t.Fatalf("%d swaps, %d of %d tried pairs scored exactly: want swaps and at most a tenth", len(got), scored, attempted)
	}
}
