package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

func TestLevelUtilization(t *testing.T) {
	tree, pf := buildPlaced(t, placement.WorkloadAware{TopServices: 3, Seed: 1})
	rows, err := LevelUtilization(tree, powertree.RPP, pf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Peak <= 0 || r.Mean <= 0 || r.Mean > r.Peak {
			t.Fatalf("bad row: %+v", r)
		}
		if r.PeakPct <= 0 || r.PeakPct > 100 {
			t.Fatalf("peak pct out of range: %+v", r)
		}
		if r.MeanPct > r.PeakPct {
			t.Fatalf("mean above peak: %+v", r)
		}
	}
}

// TestLevelUtilizationMisalignedSiblings: two leaves whose traces differ in
// length cannot be combined into their parent, so every level above RPP
// fails, but each leaf on its own aggregates fine and the RPP rows (and the
// hot-leaf list built from them) must still come back.
func TestLevelUtilizationMisalignedSiblings(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{Name: "m", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]timeseries.Series{
		"a": timeseries.New(t0, time.Minute, []float64{10, 20, 30}),
		"b": timeseries.New(t0, time.Minute, []float64{40, 50}),
	}
	leaves := tree.Leaves()
	for i, id := range []string{"a", "b"} {
		if err := leaves[i].Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	pf := powertree.PowerFn(func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	})

	rows, err := LevelUtilization(tree, powertree.RPP, pf)
	if err != nil || len(rows) != 2 || rows[0].Peak != 30 || rows[1].Peak != 50 {
		t.Fatalf("RPP rows = %+v, %v", rows, err)
	}
	if hot, err := FragmentedNodes(tree, pf, 1); err != nil || len(hot) != 1 || hot[0].Node != leaves[1].Name {
		t.Fatalf("FragmentedNodes = %+v, %v", hot, err)
	}
	if _, err := LevelUtilization(tree, powertree.SB, pf); err == nil {
		t.Fatal("SB level must fail on misaligned children")
	}
	if _, err := UtilizationReport(tree, pf); err == nil {
		t.Fatal("UtilizationReport must fail on misaligned traces")
	}
}

func TestUtilizationReport(t *testing.T) {
	tree, pf := buildPlaced(t, placement.Oblivious{})
	rep, err := UtilizationReport(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DC", "RPP", "peak util"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestFragmentedNodes(t *testing.T) {
	tree, pf := buildPlaced(t, placement.Oblivious{})
	rows, err := FragmentedNodes(tree, pf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakPct > rows[i-1].PeakPct {
			t.Fatal("not sorted by peak utilization")
		}
	}
	// Asking for more than exists clamps.
	all, err := FragmentedNodes(tree, pf, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(tree.Leaves()) {
		t.Fatalf("clamp: %d vs %d leaves", len(all), len(tree.Leaves()))
	}
	if got := FormatFragmented(rows); !strings.Contains(got, "fragmented") {
		t.Fatal("FormatFragmented output")
	}
}
