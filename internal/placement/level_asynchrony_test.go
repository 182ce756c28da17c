package placement

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// levelAsynchronyOracle is LevelAsynchrony as it stood before it read the
// ledger: every node's residents gathered and summed afresh by
// score.Asynchrony (whose own old body pins it in the score package). The
// parallel original was bit-identical to this serial loop.
func levelAsynchronyOracle(tree *powertree.Node, level powertree.Level, traces TraceFn) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, n := range tree.NodesAtLevel(level) {
		ids := n.AllInstances()
		if len(ids) < 2 {
			continue
		}
		trs := make([]timeseries.Series, len(ids))
		for j, id := range ids {
			tr, ok := traces(id)
			if !ok {
				return nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, id)
			}
			trs[j] = tr
		}
		s, err := score.Asynchrony(trs...)
		if err != nil {
			return nil, fmt.Errorf("placement: scoring node %q: %w", n.Name, err)
		}
		out[n.Name] = s
	}
	return out, nil
}

// TestLevelAsynchronyFromMatchesOracle scores every level of four placed
// trees from their ledger: leaf scores must equal the oracle's bit for bit;
// interior aggregates sum children's aggregates rather than a flat list of
// traces, so there only a 1e-12 relative difference is allowed.
func TestLevelAsynchronyFromMatchesOracle(t *testing.T) {
	type fixture struct {
		name   string
		tree   *powertree.Node
		traces TraceFn
	}
	var fixtures []fixture
	for name, placer := range map[string]Placer{
		"oblivious": Oblivious{},
		"random":    Random{Seed: 4},
		"aware":     WorkloadAware{TopServices: 3, Seed: 1},
	} {
		instances, traces, tree := testFixture(t)
		if err := placer.Place(tree, instances, traces); err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{name, tree, traces})
	}
	churn, churnTraces := churnFixture(t, 10_000)
	fixtures = append(fixtures, fixture{"churn 10k", churn, churnTraces})

	for _, workers := range []string{"1", "8"} {
		t.Setenv(parallel.EnvWorkers, workers)
		for _, f := range fixtures {
			aggs, err := f.tree.AggregateAll(powertree.PowerFn(f.traces))
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range powertree.Levels {
				want, err := levelAsynchronyOracle(f.tree, level, f.traces)
				if err != nil {
					t.Fatal(err)
				}
				got, err := LevelAsynchronyFrom(aggs, level, f.traces, 0)
				if err != nil {
					t.Fatal(err)
				}
				viaTree, err := LevelAsynchrony(f.tree, level, f.traces)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || len(viaTree) != len(want) {
					t.Fatalf("%s %s workers %s: %d / %d scores, oracle %d", f.name, level, workers, len(got), len(viaTree), len(want))
				}
				for node, w := range want {
					g, ok := got[node]
					if !ok {
						t.Fatalf("%s %s: node %s not scored", f.name, level, node)
					}
					if math.Float64bits(viaTree[node]) != math.Float64bits(g) {
						t.Fatalf("%s %s %s: LevelAsynchrony %v != LevelAsynchronyFrom %v", f.name, level, node, viaTree[node], g)
					}
					if level == powertree.RPP {
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s %s workers %s: leaf score %v (%#x), oracle %v (%#x)", f.name, node, workers, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					} else if math.Abs(g-w) > 1e-12*math.Abs(w) {
						t.Fatalf("%s %s %s: %v vs oracle %v beyond 1e-12 relative", f.name, level, node, g, w)
					}
				}
			}
		}
	}
}

// TestLevelAsynchronyFromErrors: a resident without a trace and a resident
// that never draws power fail the ledger path with the oracle's error — the
// first failing leaf's, at one worker and at eight, when two leaves fail.
func TestLevelAsynchronyFromErrors(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 2}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	victims := map[string]bool{leaves[1].Instances[1]: true, leaves[len(leaves)-1].Instances[0]: true}
	broken := map[string]TraceFn{
		"missing": func(id string) (timeseries.Series, bool) {
			if victims[id] {
				return timeseries.Series{}, false
			}
			return traces(id)
		},
		"zero peak": func(id string) (timeseries.Series, bool) {
			tr, ok := traces(id)
			if victims[id] {
				return timeseries.Zeros(tr.Start, tr.Step, tr.Len()), ok
			}
			return tr, ok
		},
	}
	wantClass := map[string]error{"missing": ErrMissingTrace, "zero peak": score.ErrZeroPeak}
	for name, tf := range broken {
		aggs, err := tree.AggregateAll(powertree.PowerFn(tf))
		if err != nil {
			t.Fatal(err)
		}
		_, want := levelAsynchronyOracle(tree, powertree.RPP, tf)
		for _, workers := range []int{1, 8} {
			_, got := LevelAsynchronyFrom(aggs, powertree.RPP, tf, workers)
			if !errors.Is(got, wantClass[name]) || got == nil || want == nil || got.Error() != want.Error() {
				t.Fatalf("%s workers %d: error %v, oracle %v", name, workers, got, want)
			}
		}
	}
}
