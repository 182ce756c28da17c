package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

var fragT0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

// fragTree builds a 1-suite/1-MSB/2-SB/2-RPP tree with exact budget sums.
func fragTree(t *testing.T, leafBudget float64) *powertree.Node {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "f", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: leafBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func fragSeries(vals ...float64) timeseries.Series {
	return timeseries.New(fragT0, time.Hour, vals)
}

func fragLookup(traces map[string]timeseries.Series) powertree.PowerFn {
	return func(id string) (timeseries.Series, bool) {
		tr, ok := traces[id]
		return tr, ok
	}
}

// TestFragmentationSynchronousVsInterleaved is the metric's core contract:
// hosting the same instances, a placement whose leaf peaks coincide strands
// headroom at every interior level, while a perfectly interleaved placement
// strands none.
func TestFragmentationSynchronousVsInterleaved(t *testing.T) {
	traces := map[string]timeseries.Series{
		"a0": fragSeries(80, 20), "a1": fragSeries(80, 20),
		"b0": fragSeries(20, 80), "b1": fragSeries(20, 80),
	}
	attach := func(t *testing.T, tree *powertree.Node, byLeaf [][]string) {
		t.Helper()
		for i, leaf := range tree.Leaves() {
			for _, id := range byLeaf[i] {
				if err := leaf.Attach(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Synchronous: each leaf pairs two instances that peak together, so
	// every leaf peaks at 160 while the root aggregate peaks at 200 even
	// though Σ leaf peaks is 320.
	sync := fragTree(t, 200)
	attach(t, sync, [][]string{{"a0", "a1"}, {"b0", "b1"}, {}, {}})
	syncRows, err := MultiFragmentationRates(sync, fragLookup(traces), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved: counter-phased pairs flatten every leaf to 100.
	mixed := fragTree(t, 200)
	attach(t, mixed, [][]string{{"a0", "b0"}, {"a1", "b1"}, {}, {}})
	mixedRows, err := MultiFragmentationRates(mixed, fragLookup(traces), nil)
	if err != nil {
		t.Fatal(err)
	}

	rate := func(rows []FragmentationRow, level powertree.Level) float64 {
		for _, r := range rows {
			if r.Level == level {
				return r.RatePct
			}
		}
		t.Fatalf("no row at level %s", level)
		return 0
	}

	// RPP strands nothing by construction.
	if got := rate(syncRows, powertree.RPP); got != 0 {
		t.Fatalf("leaf-level rate = %v, want 0", got)
	}
	// The synchronous placement must strand headroom at the root: leaves
	// a0+a1 and b0+b1 peak at 160 each (adm 40+40 on one SB… every leaf
	// admissible 40 or 200), while the DC aggregate peaks at only 200.
	if syncDC, mixedDC := rate(syncRows, powertree.DC), rate(mixedRows, powertree.DC); syncDC <= mixedDC {
		t.Fatalf("synchronous DC rate %.3f not above interleaved %.3f", syncDC, mixedDC)
	}
	// The interleaved placement reaches every advertised watt: flat 100 W
	// leaves sum to a flat 200 W root, so admissible == headroom everywhere.
	for _, r := range mixedRows {
		if math.Abs(r.StrandedWatts) > 1e-9 {
			t.Fatalf("interleaved %s strands %.6f W", r.Level, r.StrandedWatts)
		}
	}
}

// TestFragmentationHandComputed pins exact numbers on a hand-checked tree.
func TestFragmentationHandComputed(t *testing.T) {
	tree := fragTree(t, 100)
	leaves := tree.Leaves()
	traces := map[string]timeseries.Series{
		"x": fragSeries(90, 0),
		"y": fragSeries(0, 90),
	}
	if err := leaves[0].Attach("x"); err != nil {
		t.Fatal(err)
	}
	if err := leaves[1].Attach("y"); err != nil {
		t.Fatal(err)
	}
	rows, err := MultiFragmentationRates(tree, fragLookup(traces), nil)
	if err != nil {
		t.Fatal(err)
	}
	byLevel := make(map[powertree.Level]FragmentationRow)
	for _, r := range rows {
		byLevel[r.Level] = r
	}
	// Leaves: x-leaf headroom 10, y-leaf headroom 10, two empty leaves 100
	// each; all admissible. SB0 hosts both: budget 200, peak 90 → headroom
	// 110, but children admit only 10+10=20 → 90 stranded. SB1 empty: 200
	// admissible. MSB/Suite/DC: budget 400, peak 90 → headroom 310,
	// admissible min(310, 20+200)=220 → 90 stranded, rate 22.5%.
	checks := []struct {
		level    powertree.Level
		stranded float64
		ratePct  float64
	}{
		{powertree.RPP, 0, 0},
		{powertree.SB, 90, 22.5},
		{powertree.MSB, 90, 22.5},
		{powertree.Suite, 90, 22.5},
		{powertree.DC, 90, 22.5},
	}
	for _, c := range checks {
		row, ok := byLevel[c.level]
		if !ok {
			t.Fatalf("no row at %s", c.level)
		}
		if math.Abs(row.StrandedWatts-c.stranded) > 1e-9 {
			t.Errorf("%s stranded = %.6f, want %.1f", c.level, row.StrandedWatts, c.stranded)
		}
		if math.Abs(row.RatePct-c.ratePct) > 1e-9 {
			t.Errorf("%s rate = %.6f%%, want %.1f%%", c.level, row.RatePct, c.ratePct)
		}
	}
}

// TestFragmentationOverloadedNodeClamps checks that nodes already over
// budget contribute zero headroom rather than negative values.
func TestFragmentationOverloadedNodeClamps(t *testing.T) {
	tree := fragTree(t, 100)
	traces := map[string]timeseries.Series{"hot": fragSeries(150, 150)}
	if err := tree.Leaves()[0].Attach("hot"); err != nil {
		t.Fatal(err)
	}
	rows, err := MultiFragmentationRates(tree, fragLookup(traces), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Headroom < 0 || r.Admissible < 0 || r.StrandedWatts < 0 {
			t.Fatalf("%s has negative component: %+v", r.Level, r)
		}
	}
}

// TestFragmentationRateSingleLevel: an empty tree strands nothing at any
// level, and every level of the tree gets exactly one power row.
func TestFragmentationRateSingleLevel(t *testing.T) {
	tree := fragTree(t, 100)
	rows, err := MultiFragmentationRates(tree, fragLookup(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(powertree.Levels) {
		t.Fatalf("got %d rows, want one per level (%d)", len(rows), len(powertree.Levels))
	}
	for _, row := range rows {
		if row.RatePct != 0 || row.Dimension != powertree.PowerDimension {
			t.Fatalf("empty tree row = %+v, want a power row at rate 0", row)
		}
	}
}
