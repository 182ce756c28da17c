package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/powertree"
)

var epoch = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

func testTree(t *testing.T) *powertree.Node {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	for i, id := range []string{"a", "b", "c", "d"} {
		if err := leaves[i%2].Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// feedAll replays n slots of a flat 100 W trace for every instance through
// the injector and returns the deliveries per instance.
func feedAll(inj *Injector, ids []string, n int) map[string][]Reading {
	out := make(map[string][]Reading)
	for s := 0; s < n; s++ {
		at := epoch.Add(time.Duration(s) * time.Minute)
		for _, id := range ids {
			out[id] = append(out[id], inj.Feed(id, "", at, 100)...)
		}
	}
	for _, r := range inj.Flush() {
		out[r.ID] = append(out[r.ID], r)
	}
	return out
}

func TestZeroProfilePassesThrough(t *testing.T) {
	inj, err := New(Profile{}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := feedAll(inj, []string{"a"}, 100)["a"]
	if len(got) != 100 {
		t.Fatalf("zero profile delivered %d of 100 readings", len(got))
	}
	for i, r := range got {
		want := epoch.Add(time.Duration(i) * time.Minute)
		if !r.At.Equal(want) || r.Watts != 100 {
			t.Fatalf("reading %d transformed: %+v", i, r)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		want error
	}{
		{"negative rate", Profile{DropoutRate: -0.1}, ErrBadRate},
		{"rate over one", Profile{SpikeRate: 1.5}, ErrBadRate},
		{"trip without node", Profile{Trips: []TripWindow{{Duration: time.Hour}}}, ErrBadTrip},
		{"trip without duration", Profile{Trips: []TripWindow{{Node: "dc"}}}, ErrBadTrip},
		{"trip fraction over one", Profile{Trips: []TripWindow{{Node: "dc", Duration: time.Hour, BudgetFraction: 1.5}}}, ErrBadTrip},
		{"negative trip fraction", Profile{Trips: []TripWindow{{Node: "dc", Duration: time.Hour, BudgetFraction: -0.2}}}, ErrBadTrip},
		{"NaN trip fraction", Profile{Trips: []TripWindow{{Node: "dc", Duration: time.Hour, BudgetFraction: math.NaN()}}}, ErrBadTrip},
		{"active-for without from", Profile{ActiveFor: time.Hour}, ErrBadSpan},
	}
	for _, tc := range cases {
		if _, err := New(tc.p, time.Minute, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Leaf outages read only the leaf Feed's caller names: they need no
	// tree, and a reading on no leaf never falls in one.
	inj, err := New(Profile{LeafOutageRate: 1}, time.Minute, nil)
	if err != nil {
		t.Fatalf("leaf outage without tree: %v", err)
	}
	if got := inj.Feed("a", "", time.Unix(0, 0), 5); len(got) != 1 || got[0].Watts != 5 {
		t.Errorf("reading on no leaf under a certain outage: %+v", got)
	}
	if _, err := New(Profile{}, 0, nil); !errors.Is(err, ErrBadStep) {
		t.Errorf("zero step accepted")
	}
	if _, err := New(Profile{Trips: []TripWindow{{Node: "nope", Duration: time.Hour}}}, time.Minute, testTree(t)); !errors.Is(err, ErrBadTrip) {
		t.Errorf("unknown trip node accepted")
	}
}

func TestDropoutRateAndDeterminism(t *testing.T) {
	const n = 4000
	p := Profile{Seed: 7, DropoutRate: 0.1}
	run := func() map[string][]Reading {
		inj, err := New(p, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		return feedAll(inj, []string{"a", "b", "c"}, n)
	}
	got := run()
	total := 0
	for _, rs := range got {
		total += len(rs)
	}
	frac := 1 - float64(total)/float64(3*n)
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("dropout fraction %.3f far from configured 0.1", frac)
	}
	if !reflect.DeepEqual(got, run()) {
		t.Fatal("two runs with the same seed delivered different readings")
	}
	// A different seed injects a different pattern.
	p.Seed = 8
	inj, _ := New(p, time.Minute, nil)
	if reflect.DeepEqual(got, feedAll(inj, []string{"a", "b", "c"}, n)) {
		t.Fatal("different seeds delivered identical readings")
	}
}

func TestFeedOrderIndependence(t *testing.T) {
	// Decisions are keyed on (seed, id, slot), so interleaving instances
	// differently must not change what each instance's stream sees.
	p := Profile{Seed: 3, DropoutRate: 0.2, SpikeRate: 0.05, SkewFraction: 0.5}
	a, _ := New(p, time.Minute, nil)
	byID := feedAll(a, []string{"a", "b"}, 500)

	b, _ := New(p, time.Minute, nil)
	other := make(map[string][]Reading)
	for _, id := range []string{"b", "a"} { // reversed interleave, per-slot
		for s := 0; s < 500; s++ {
			at := epoch.Add(time.Duration(s) * time.Minute)
			other[id] = append(other[id], b.Feed(id, "", at, 100)...)
		}
	}
	for _, r := range b.Flush() {
		other[r.ID] = append(other[r.ID], r)
	}
	if !reflect.DeepEqual(byID, other) {
		t.Fatal("delivery depends on cross-instance feed order")
	}
}

func TestStuckLatchesLastValue(t *testing.T) {
	inj, err := New(Profile{Seed: 1, StuckRate: 0.5}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	latched := 0
	for s := 0; s < 2000; s++ {
		at := epoch.Add(time.Duration(s) * time.Minute)
		v := 100 + float64(s) // strictly increasing, so a repeat means latching
		for _, r := range inj.Feed("a", "", at, v) {
			if r.Watts != v {
				latched++
				if r.Watts >= v {
					t.Fatalf("slot %d: latched value %v not older than fed %v", s, r.Watts, v)
				}
			}
		}
	}
	if latched == 0 {
		t.Fatal("stuck sensor never latched")
	}
}

func TestSpikesAndSkew(t *testing.T) {
	inj, err := New(Profile{Seed: 2, SpikeRate: 0.1, SkewFraction: 1}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	skew := inj.Skew("a")
	if skew != time.Minute {
		t.Fatalf("skew = %v, want one slot (1m)", skew)
	}
	spikes := 0
	for s := 0; s < 1000; s++ {
		at := epoch.Add(time.Duration(s) * time.Minute)
		for _, r := range inj.Feed("a", "", at, 100) {
			if !r.At.Equal(at.Add(skew)) {
				t.Fatalf("slot %d delivered at %v, want constant skew %v", s, r.At, skew)
			}
			if r.Watts != 100 {
				if r.Watts != 300 {
					t.Fatalf("spiked value %v, want 300", r.Watts)
				}
				spikes++
			}
		}
	}
	if spikes < 50 || spikes > 200 {
		t.Fatalf("spike count %d far from 10%% of 1000", spikes)
	}
}

func TestReorderDeliversOutOfOrderAndFlushes(t *testing.T) {
	inj, err := New(Profile{Seed: 5, ReorderFraction: 0.3}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Reading
	for s := 0; s < 300; s++ {
		got = append(got, inj.Feed("a", "", epoch.Add(time.Duration(s)*time.Minute), float64(s))...)
	}
	flushed := inj.Flush()
	outOfOrder := 0
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			outOfOrder++
		}
	}
	if outOfOrder == 0 {
		t.Fatal("no out-of-order deliveries despite 30% reorder rate")
	}
	if len(got)+len(flushed) != 300 {
		t.Fatalf("reordering lost readings: %d delivered + %d flushed != 300", len(got), len(flushed))
	}
	if inj.Flush() != nil {
		t.Fatal("second Flush returned readings")
	}
}

func TestLeafOutageDropsWholeLeafTogether(t *testing.T) {
	tree := testTree(t)
	inj, err := New(Profile{Seed: 9, LeafOutageRate: 0.2}, time.Minute, tree)
	if err != nil {
		t.Fatal(err)
	}
	// a and c share a leaf; b and d share the other.
	leafOf := tree.InstanceLeaves()
	delivered := make(map[string]map[int]bool)
	for _, id := range []string{"a", "b", "c", "d"} {
		delivered[id] = make(map[int]bool)
	}
	for s := 0; s < 1000; s++ {
		at := epoch.Add(time.Duration(s) * time.Minute)
		for _, id := range []string{"a", "b", "c", "d"} {
			for range inj.Feed(id, leafOf[id], at, 100) {
				delivered[id][s] = true
			}
		}
	}
	dropsA, apart := 0, 0
	for s := 0; s < 1000; s++ {
		if delivered["a"][s] != delivered["c"][s] {
			t.Fatalf("slot %d: co-leaf instances a and c disagree", s)
		}
		if delivered["b"][s] != delivered["d"][s] {
			t.Fatalf("slot %d: co-leaf instances b and d disagree", s)
		}
		if !delivered["a"][s] {
			dropsA++
		}
		if delivered["a"][s] != delivered["b"][s] {
			apart++
		}
	}
	if dropsA == 0 || apart == 0 {
		t.Fatalf("%d slots of leaf outage, %d of them on one leaf only: want both", dropsA, apart)
	}
}

func TestActiveWindowBounds(t *testing.T) {
	from := epoch.Add(100 * time.Minute)
	inj, err := New(Profile{Seed: 4, DropoutRate: 1, ActiveFrom: from, ActiveFor: 50 * time.Minute}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 300; s++ {
		at := epoch.Add(time.Duration(s) * time.Minute)
		n := len(inj.Feed("a", "", at, 100))
		inWindow := s >= 100 && s < 150
		if inWindow && n != 0 {
			t.Fatalf("slot %d inside fault window delivered", s)
		}
		if !inWindow && n != 1 {
			t.Fatalf("slot %d outside fault window dropped", s)
		}
	}
}

func TestTransientAppendFailureRetriesOut(t *testing.T) {
	inj, err := New(Profile{Seed: 6, TransientRate: 1}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := epoch
	if !inj.TransientAppendFailure("a", at, 0) {
		t.Fatal("rate-1 transient did not fail the first attempt")
	}
	// Flaky appends fail at most two attempts; the third always lands.
	if inj.TransientAppendFailure("a", at, 2) {
		t.Fatal("transient failure did not clear by attempt 2")
	}
	clean, _ := New(Profile{Seed: 6}, time.Minute, nil)
	if clean.TransientAppendFailure("a", at, 0) {
		t.Fatal("zero-rate profile injected a transient failure")
	}
}

func TestTripsOverlapping(t *testing.T) {
	trip := TripWindow{Node: "dc/s0/m0/b0/r0", Start: epoch.Add(24 * time.Hour), Duration: 24 * time.Hour, BudgetFraction: 0.6}
	inj, err := New(Profile{Trips: []TripWindow{trip}}, time.Minute, testTree(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.TripsOverlapping(epoch, epoch.Add(24*time.Hour)); len(got) != 0 {
		t.Fatalf("trip active before start: %+v", got)
	}
	got := inj.TripsOverlapping(epoch, epoch.Add(7*24*time.Hour))
	if len(got) != 1 || got[0].Node != trip.Node {
		t.Fatalf("overlapping trip not reported: %+v", got)
	}
	if got[0].Budget() != 0.6 {
		t.Fatalf("Budget() = %v, want 0.6", got[0].Budget())
	}
	if (TripWindow{}).Budget() != 0.5 {
		t.Fatal("default budget fraction is not 0.5")
	}
	if got := inj.TripsOverlapping(epoch.Add(3*24*time.Hour), epoch.Add(4*24*time.Hour)); len(got) != 0 {
		t.Fatalf("trip active after end: %+v", got)
	}
}

func TestPresetsValidate(t *testing.T) {
	for name, p := range map[string]Profile{"light": Light(1), "heavy": Heavy(1)} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
		if p.DropoutRate <= 0 || math.IsNaN(p.DropoutRate) {
			t.Errorf("%s preset injects no dropout", name)
		}
	}
}
