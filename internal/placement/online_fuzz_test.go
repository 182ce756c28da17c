package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// exhaustiveAdmit is Online.Admit as it stood before peak bounds: a pass at
// every node the feasibility walk visits, over aggregates summed fresh from
// the tree, and every candidate scored in tree order by referenceChoose. It
// returns the leaf the placer must pick or the error text it must return,
// and the trace passes it made: one per visited node and one per
// differential. Trees here are power-only, so a candidate's residual vector
// is its power headroom fraction alone.
func exhaustiveAdmit(tree *powertree.Node, traces TraceFn, p refPolicy, name, id string) (leaf *powertree.Node, errText string, passes int) {
	tr, _ := traces(id)
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		return nil, err.Error(), 0
	}
	var cands []refCandidate
	var walk func(n *powertree.Node) error
	walk = func(n *powertree.Node) error {
		passes++
		agg, _ := aggs.Trace(n)
		post := tr.Peak()
		if !agg.Empty() {
			if agg.Len() != tr.Len() || !agg.Start.Equal(tr.Start) || agg.Step != tr.Step {
				return fmt.Errorf("placement: arriving trace misaligned with aggregate (%d@%v vs %d@%v)",
					tr.Len(), tr.Step, agg.Len(), agg.Step)
			}
			post = math.Inf(-1)
			for i, v := range agg.Values {
				if s := v + tr.Values[i]; s > post {
					post = s
				}
			}
		}
		if post > n.Budget {
			return nil
		}
		if n.IsLeaf() {
			head := n.Budget - post
			cands = append(cands, refCandidate{leaf: n, headroom: head, residuals: []float64{head / n.Budget}})
			return nil
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(tree); err != nil {
		return nil, err.Error(), passes
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoCapacity, id).Error(), passes
	}
	idx, err := referenceChoose(p, cands, func(leaf *powertree.Node) (float64, bool, error) {
		if len(leaf.Instances) == 0 {
			return 0, false, nil
		}
		passes++
		sum, _ := aggs.Trace(leaf)
		s, err := score.DifferentialFromSum(tr, sum, len(leaf.Instances))
		if err != nil {
			return 0, true, fmt.Errorf("differential against %q: %w", leaf.Name, err)
		}
		return s, true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("placement: policy %q choosing for %q: %w", name, id, err).Error(), passes
	}
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Sprintf("placement: policy %q chose candidate %d of %d", name, idx, len(cands)), passes
	}
	return cands[idx].leaf, "", passes
}

// TestOnlineAdmitTracePasses: on each BenchmarkOnlineAdmit* fixture an
// admission picks exhaustiveAdmit's leaf with at most 30 full passes over
// node aggregates, where exhaustive scoring makes 1 365 — also on
// churnFixture's i.i.d. noise and on placedFixture's WorkloadAware leaves,
// whose scores sit too close together for the two-slot bound to separate.
// Those fixtures' budgets never bind, so the feasibility walk makes no
// pass there. On tightFixture, where every leaf's budget binds, an
// admission makes at most 107 of exhaustive's 818 (644 when every node the
// peak-sum bound fails takes a pass): the leaves that cannot take the
// arrival are proven so at its peak slot or their own.
func TestOnlineAdmitTracePasses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fixture   func(testing.TB, int) (*powertree.Node, TraceFn)
		maxPasses uint64
	}{
		{"diurnal", diurnalFixture, 30},
		{"churn", churnFixture, 30},
		{"placed", placedFixture, 30},
		{"tight", tightFixture, 107},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, traces := tc.fixture(t, 10_000)
			want, _, exhaustive := exhaustiveAdmit(tree, traces, refPolicy{kind: PolicyAsynchrony}, "asynchrony", "arrival")
			o, err := NewOnline(tree, traces, PolicyConfig{})
			if err != nil {
				t.Fatal(err)
			}
			before := obsTracePasses.Value()
			got, err := o.Admit(Instance{ID: "arrival"})
			if err != nil {
				t.Fatal(err)
			}
			passes := obsTracePasses.Value() - before
			t.Logf("%d trace passes, exhaustive admission makes %d", passes, exhaustive)
			if got != want {
				t.Fatalf("admitted onto %s, exhaustive admission picks %s", leafName(got), leafName(want))
			}
			if passes > tc.maxPasses {
				t.Fatalf("%d trace passes per admission, want ≤ %d (exhaustive makes %d)", passes, tc.maxPasses, exhaustive)
			}
		})
	}
}

// FuzzOnlineAdmitMatchesExhaustive builds a small random tree, populates it
// from a pool of short traces on a coarse grid (zero and negative slots;
// repeated traces, so exact score ties; empty leaves; budgets near the
// aggregates' peaks), and then admits and retires a stream of arrivals
// under every built-in policy. At each admission the placer must pick the
// leaf, or return the error text, that exhaustiveAdmit does. Wherever the
// asynchrony policy chose a leaf, every occupied candidate it left unscored
// must score strictly below the winner: it could neither win nor tie.
func FuzzOnlineAdmitMatchesExhaustive(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*37), uint8(seed*11))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, tight uint8) {
		policies := []struct {
			cfg PolicyConfig
			ref refPolicy
		}{
			{PolicyConfig{}, refPolicy{kind: PolicyAsynchrony}},
			{PolicyConfig{Kind: PolicyBestFit}, refPolicy{kind: PolicyBestFit}},
			{PolicyConfig{Kind: PolicyRandom, Seed: seed}, refPolicy{kind: PolicyRandom, rng: newRand(seed)}},
			{PolicyConfig{Kind: PolicyFARB}, refPolicy{kind: PolicyFARB}},
			{PolicyConfig{Kind: PolicyFARB, Weights: score.FARBWeights{Balance: 1, Asynchrony: 2}},
				refPolicy{kind: PolicyFARB, farb: score.FARBWeights{Balance: 1, Asynchrony: 2}}},
		}
		for _, pol := range policies {
			rng := rand.New(rand.NewSource(seed))
			tree, traces, pool := fuzzFleet(t, rng, shape, tight)
			o, err := NewOnline(tree, traces.fn, pol.cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := o.policy.Name()
			var admitted []string
			for step := 0; step < 12; step++ {
				if len(admitted) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(admitted))
					if _, err := o.Retire(admitted[i]); err != nil {
						t.Fatalf("%s step %d: retire %q: %v", name, step, admitted[i], err)
					}
					admitted = slices.Delete(admitted, i, i+1)
					continue
				}
				id := fmt.Sprintf("a%d", step)
				traces.m[id] = pool[rng.Intn(len(pool))]
				if rng.Intn(16) == 0 { // a trace no aggregate aligns with
					traces.m[id] = timeseries.Zeros(t0, time.Minute, pool[0].Len()+1)
				}
				wantLeaf, wantErr, _ := exhaustiveAdmit(tree, traces.fn, pol.ref, name, id)
				gotLeaf, err := o.Admit(Instance{ID: id})
				gotErr := ""
				if err != nil {
					gotErr = err.Error()
				}
				if gotErr != wantErr || gotLeaf != wantLeaf {
					t.Fatalf("%s step %d admitting %q: placer %v %q, exhaustive %v %q\n%s",
						name, step, id, leafName(gotLeaf), gotErr, leafName(wantLeaf), wantErr, tree)
				}
				if _, ok := o.policy.(OnlineAsynchrony); ok && err == nil {
					checkUnscoredLose(t, o.cands, gotLeaf, traces.m[id])
				}
				if err == nil {
					admitted = append(admitted, id)
				}
			}
		}
	})
}

// checkUnscoredLose fails unless every occupied candidate the policy did
// not score has an exact score strictly below the winner's (+Inf for an
// empty winner).
func checkUnscoredLose(t *testing.T, cands []OnlineCandidate, winner *powertree.Node, tr timeseries.Series) {
	t.Helper()
	top := math.Inf(1)
	for _, c := range cands {
		if c.Leaf == winner && c.Count > 0 {
			var err error
			if top, err = score.DifferentialFromSum(tr, c.Aggregate, c.Count); err != nil {
				t.Fatalf("winner %s: %v", leafName(winner), err)
			}
		}
	}
	for _, c := range cands {
		if c.Count == 0 || c.scored {
			continue
		}
		if s, err := score.DifferentialFromSum(tr, c.Aggregate, c.Count); err != nil || !(s < top) {
			t.Fatalf("left %s unscored at %v (%v), the winner %s scores %v", leafName(c.Leaf), s, err, leafName(winner), top)
		}
	}
}

// fuzzTraces is a mutable trace table and its TraceFn.
type fuzzTraces struct {
	m  map[string]timeseries.Series
	fn TraceFn
}

// fuzzFleet draws a tree of 1–12 leaves with 0–3 residents each from a pool
// of 2–5 traces of 1–6 slots in [-2, 5] W, and sets each node's budget to
// its aggregate's peak plus a small draw (tight) or a larger one, never
// below 1 W so every budget stays positive.
func fuzzFleet(t *testing.T, rng *rand.Rand, shape, tight uint8) (*powertree.Node, *fuzzTraces, []timeseries.Series) {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "f", SuitesPerDC: 1 + int(shape%2), MSBsPerSuite: 1 + int(shape/2%2), SBsPerMSB: 1,
		RPPsPerSB: 1 + int(shape/4%3), LeafBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := 1 + rng.Intn(6)
	pool := make([]timeseries.Series, 2+rng.Intn(4))
	for i := range pool {
		pool[i] = timeseries.Zeros(t0, time.Minute, slots)
		for j := range pool[i].Values {
			pool[i].Values[j] = float64(rng.Intn(8) - 2)
		}
	}
	traces := &fuzzTraces{m: make(map[string]timeseries.Series)}
	traces.fn = func(id string) (timeseries.Series, bool) {
		s, ok := traces.m[id]
		return s, ok
	}
	for li, leaf := range tree.Leaves() {
		for k := rng.Intn(4); k > 0; k-- {
			id := fmt.Sprintf("r%d-%d", li, k)
			traces.m[id] = pool[rng.Intn(len(pool))]
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces.fn))
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(n *powertree.Node) {
		slack := float64(rng.Intn(12))
		if rng.Intn(256) < int(tight) {
			slack = float64(rng.Intn(3))
		}
		n.Budget = max(1, aggs.Peak(n)+slack)
	})
	return tree, traces, pool
}

func leafName(n *powertree.Node) string {
	if n == nil {
		return "<none>"
	}
	return n.Name
}
