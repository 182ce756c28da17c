package metrics

import (
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/powertree"
)

// placedAggs places the buildPlaced fleet with placer and aggregates the
// tree once.
func placedAggs(t *testing.T, placer placement.Placer) (*powertree.Node, *powertree.Aggregates) {
	t.Helper()
	tree, pf := buildPlaced(t, placer)
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	return tree, aggs
}

func TestLevelUtilization(t *testing.T) {
	_, aggs := placedAggs(t, placement.WorkloadAware{TopServices: 3, Seed: 1})
	rows := LevelUtilization(aggs, powertree.RPP)
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

func TestUtilizationReport(t *testing.T) {
	_, aggs := placedAggs(t, placement.Oblivious{})
	rep := UtilizationReport(aggs)
	for _, want := range []string{"DC", "RPP", "peak util"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestFragmentedNodes(t *testing.T) {
	tree, aggs := placedAggs(t, placement.Oblivious{})
	rows := FragmentedNodes(aggs, 3)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakPct > rows[i-1].PeakPct {
			t.Fatal("not sorted by peak utilization")
		}
	}
	// Asking for more than exists clamps.
	all := FragmentedNodes(aggs, 1000)
	if len(all) != len(tree.Leaves()) {
		t.Fatalf("clamp: %d vs %d leaves", len(all), len(tree.Leaves()))
	}
	if got := FormatFragmented(rows); !strings.Contains(got, "fragmented") {
		t.Fatal("FormatFragmented output")
	}
}
