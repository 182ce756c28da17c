package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// These tests pin the placer's scoring-from-the-ledger path to the
// per-resident scoring it replaced.

// residentScoring is the test-only reference for the asynchrony term: it
// re-derives a leaf's peers from leaf.Instances and the TraceFn and scores
// the arrival against them the old way (differentialOracle). ok is false on
// an empty leaf.
func residentScoring(traces TraceFn, leaf *powertree.Node, tr timeseries.Series) (s float64, ok bool, err error) {
	if len(leaf.Instances) == 0 {
		return 0, false, nil
	}
	peers := make([]timeseries.Series, len(leaf.Instances))
	for i, id := range leaf.Instances {
		if peers[i], ok = traces(id); !ok {
			return 0, false, fmt.Errorf("%w for resident %q", ErrMissingTrace, id)
		}
	}
	sum, err := timeseries.Sum(peers...)
	if err != nil {
		return 0, true, err
	}
	s, err = differentialOracle(tr, sum, len(peers))
	return s, true, err
}

// refCandidate is one feasible leaf as referenceChoose sees it: its
// post-admission headroom and residual vector, known up front.
type refCandidate struct {
	leaf      *powertree.Node
	headroom  float64
	residuals []float64
}

// refCandidates reads the placer's candidates through their accessors.
func refCandidates(cands []OnlineCandidate) []refCandidate {
	out := make([]refCandidate, len(cands))
	for i := range cands {
		out[i] = refCandidate{leaf: cands[i].Leaf, headroom: cands[i].Headroom(), residuals: cands[i].Residuals()}
	}
	return out
}

// refPolicy names the built-in policy referenceChoose re-implements: farb
// holds PolicyFARB's weights and rng PolicyRandom's decision stream.
type refPolicy struct {
	kind PolicyKind
	farb score.FARBWeights
	rng  *rand.Rand
}

// referenceChoose is each built-in policy's Choose as it stood before
// candidates were scored lazily: every candidate, in tree order, each
// occupied one scored by differential (occupied is false on an empty
// leaf).
func referenceChoose(p refPolicy, cands []refCandidate, differential func(*powertree.Node) (s float64, occupied bool, err error)) (int, error) {
	switch p.kind {
	case PolicyRandom:
		return p.rng.Intn(len(cands)), nil
	case PolicyBestFit:
		best, bestHead := 0, math.Inf(1)
		for i, c := range cands {
			if c.headroom < bestHead {
				best, bestHead = i, c.headroom
			}
		}
		return best, nil
	}
	w := p.farb.OrDefault()
	best, bestScore, bestHead := -1, math.Inf(-1), math.Inf(1)
	for i, c := range cands {
		d, occupied := 0.0, false
		if p.kind != PolicyFARB || w.Asynchrony > 0 {
			var err error
			if d, occupied, err = differential(c.leaf); err != nil {
				return 0, err
			}
		}
		s := math.Inf(1) // an empty leaf cannot overlap with anything
		if occupied {
			s = d
		}
		if p.kind == PolicyFARB {
			asyncNorm := 0.0
			if w.Asynchrony > 0 {
				asyncNorm = 1
				if occupied {
					asyncNorm = d - 1
				}
			}
			cost, err := score.Composite(w, c.residuals, asyncNorm)
			if err != nil {
				return 0, fmt.Errorf("composite for %q: %w", c.leaf.Name, err)
			}
			s = -cost // lower cost wins
		}
		if s > bestScore || (s == bestScore && c.headroom < bestHead) {
			best, bestScore, bestHead = i, s, c.headroom
		}
	}
	return best, nil
}

// checkedPolicy runs the real policy and the reference side by side and
// records the first disagreement.
type checkedPolicy struct {
	Policy
	traces   TraceFn
	ref      refPolicy
	choices  int
	mismatch string
}

func (p *checkedPolicy) Choose(cands []OnlineCandidate, inst Instance, tr timeseries.Series) (int, error) {
	got, err := p.Policy.Choose(cands, inst, tr)
	if err != nil {
		return 0, err
	}
	want, err := referenceChoose(p.ref, refCandidates(cands), func(leaf *powertree.Node) (float64, bool, error) {
		return residentScoring(p.traces, leaf, tr)
	})
	if err != nil {
		return 0, err
	}
	p.choices++
	if got != want && p.mismatch == "" {
		p.mismatch = fmt.Sprintf("choice %d for %q: ledger scoring picked %q, resident scoring %q",
			p.choices, inst.ID, cands[got].Leaf.Name, cands[want].Leaf.Name)
	}
	return got, nil
}

// TestOnlineLedgerScoringPicksSameLeaf drives a seeded 500-step
// admit / retire / resync sequence and requires the policies that score from
// the leaf aggregate to pick, at every admission, the leaf the per-resident
// reference picks — at workers 1 and 8.
func TestOnlineLedgerScoringPicksSameLeaf(t *testing.T) {
	farb := score.FARBWeights{Balance: 2, Fullness: 1, Residual: 0.5, Asynchrony: 1.5}
	for _, workers := range []string{"1", "8"} {
		t.Setenv(parallel.EnvWorkers, workers)
		for name, weights := range map[string]*score.FARBWeights{"asynchrony": nil, "farb": &farb} {
			instances, traces, tree := testFixture(t)
			rng := rand.New(rand.NewSource(500))
			tree.Walk(func(n *powertree.Node) { n.Capacities = powertree.ResourceVector{"gpu": 1e3} })
			gpus := make(map[string]powertree.ResourceVector)
			for _, inst := range instances {
				gpus[inst.ID] = powertree.ResourceVector{"gpu": float64(rng.Intn(5))}
			}
			var real Policy = OnlineAsynchrony{}
			ref := refPolicy{kind: PolicyAsynchrony}
			if weights != nil {
				real = OnlineFARB{Weights: *weights}
				ref = refPolicy{kind: PolicyFARB, farb: *weights}
			}
			policy := &checkedPolicy{Policy: real, traces: traces, ref: ref}
			o, err := NewOnline(tree, traces, PolicyConfig{Custom: policy, Demands: func(id string) (powertree.ResourceVector, bool) {
				d, ok := gpus[id]
				return d, ok
			}})
			if err != nil {
				t.Fatal(err)
			}
			var placed []string
			for step := 0; step < 500; step++ {
				switch k := rng.Intn(4); {
				case k <= 1 && len(placed) < len(instances):
					inst := instances[len(placed)]
					if _, err := o.Admit(inst); err != nil {
						t.Fatalf("%s step %d: admit: %v", name, step, err)
					}
					placed = append(placed, inst.ID)
				case k == 3 && len(placed) > 1: // move a resident behind the placer's back
					id := placed[rng.Intn(len(placed))]
					from, _ := o.Leaf(id)
					leaves := tree.Leaves()
					to := leaves[rng.Intn(len(leaves))]
					from.Detach(id)
					if err := to.Attach(id); err != nil {
						t.Fatal(err)
					}
					if err := o.Resync(from, to); err != nil {
						t.Fatalf("%s step %d: resync: %v", name, step, err)
					}
				case len(placed) > 1: // retire a resident and readmit it
					id := placed[rng.Intn(len(placed))]
					if _, err := o.Retire(id); err != nil {
						t.Fatalf("%s step %d: retire: %v", name, step, err)
					}
					if _, err := o.Admit(Instance{ID: id}); err != nil {
						t.Fatalf("%s step %d: readmit: %v", name, step, err)
					}
				}
				if policy.mismatch != "" {
					t.Fatalf("workers %s %s step %d: %s", workers, name, step, policy.mismatch)
				}
			}
			if policy.choices < 200 {
				t.Fatalf("%s: only %d admissions checked", name, policy.choices)
			}
		}
	}
}

// TestOnlineRefusesUntracedResident: the ledger alone only records a resident
// whose trace is unknown; the placer must refuse to start, or to resync, over
// one — naming it — because its policies read a leaf's aggregate as the sum
// of all len(leaf.Instances) residents.
func TestOnlineRefusesUntracedResident(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 2}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	requireGhost := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrMissingTrace) || !strings.Contains(err.Error(), `"ghost"`) {
			t.Fatalf("%s: %v, want ErrMissingTrace naming \"ghost\"", what, err)
		}
	}
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leaves[3].Attach("ghost"); err != nil {
		t.Fatal(err)
	}
	requireGhost("Resync over an untraced resident", o.Resync(leaves[3]))
	_, err = NewOnline(tree, traces, PolicyConfig{})
	requireGhost("NewOnline over an untraced resident", err)
}

// TestOnlineAdmitAllocBudget pins the hot path's footprint: a steady-state
// admission + retirement over 640 leaves allocates the same at ≈ 10 000
// residents as at 640 (it reads one aggregate per node, never a resident
// list) and stays under 100 kB per admission — it was ≈ 5 MB when every
// candidate leaf's residents were re-averaged.
func TestOnlineAdmitAllocBudget(t *testing.T) {
	measure := func(residents int) (allocs float64, bytes uint64) {
		tree, traces := churnFixture(t, residents)
		o, err := NewOnline(tree, traces, PolicyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		admitRetire(t, o) // grow the candidate buffers
		const runs = 10
		allocs = testing.AllocsPerRun(runs, func() { admitRetire(t, o) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			admitRetire(t, o)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(640)
	allocs, bytes := measure(10_000)
	t.Logf("admit+retire: %.0f allocs / %d B at 10k residents, %.0f allocs / %d B at 640", allocs, bytes, smallAllocs, smallBytes)
	if bytes > 200_000 { // the pair: < 100 kB per admission
		t.Fatalf("admit+retire allocates %d B at 10k residents, want < 200 kB", bytes)
	}
	if allocs > smallAllocs+8 || bytes > smallBytes+smallBytes/4 {
		t.Fatalf("admit+retire cost scales with residents: %.0f allocs / %d B at 10k vs %.0f / %d B at 640",
			allocs, bytes, smallAllocs, smallBytes)
	}
}

// TestOnlineResyncForgetsDepartedInstance: an instance detached from the tree
// behind the placer's back is gone once its leaf is resynced — not reported
// by Leaf, not retirable, and admissible again.
func TestOnlineResyncForgetsDepartedInstance(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 2}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	id := instances[7].ID
	leaf, ok := o.Leaf(id)
	if !ok || !leaf.Detach(id) {
		t.Fatalf("fixture: %q not placed", id)
	}
	if err := o.Resync(leaf); err != nil {
		t.Fatal(err)
	}
	if got, ok := o.Leaf(id); ok {
		t.Fatalf("departed %q still reported on %q", id, got.Name)
	}
	if _, err := o.Retire(id); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("retiring departed %q: %v, want ErrUnknownInstance", id, err)
	}
	if _, err := o.Admit(instances[7]); err != nil {
		t.Fatalf("readmitting departed %q: %v", id, err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}
