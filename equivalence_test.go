// Serial/parallel equivalence: every parallel stage must produce results
// bit-identical to its serial counterpart regardless of the worker count.
// Each case runs at workers ∈ {1, 4, GOMAXPROCS} and asserts byte-identical
// outputs (float64 comparison via reflect.DeepEqual is exact — no epsilon).
package repro_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func TestScoreVectorsEquivalence(t *testing.T) {
	t0 := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))
	insts := make([]timeseries.Series, 64)
	for i := range insts {
		s := timeseries.Zeros(t0, 10*time.Minute, 144)
		for j := range s.Values {
			s.Values[j] = 50 + 200*rng.Float64()
		}
		insts[i] = s
	}
	basis := insts[:7]

	var want [][]float64
	for _, w := range workerCounts() {
		got, err := score.VectorsParallel(insts, basis, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: score vectors differ from serial run", w)
		}
	}
}

// TestScoreBasisOldVsNewEquivalence: the fused Basis fast path must be
// bit-identical to the pre-Basis scoring path (per-instance NormalizeTo +
// clone-based Asynchrony) at workers ∈ {1, 8}.
func TestScoreBasisOldVsNewEquivalence(t *testing.T) {
	t0 := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	insts := make([]timeseries.Series, 48)
	for i := range insts {
		s := timeseries.Zeros(t0, 10*time.Minute, 144)
		for j := range s.Values {
			s.Values[j] = 50 + 200*rng.Float64()
		}
		insts[i] = s
	}
	basis := insts[:6]

	// Old path, recomputed per instance exactly as score.Vector used to.
	want := make([][]float64, len(insts))
	for i, inst := range insts {
		ip := inst.Peak()
		v := make([]float64, len(basis))
		for k, st := range basis {
			s, err := score.Asynchrony(inst, st.NormalizeTo(ip))
			if err != nil {
				t.Fatal(err)
			}
			v[k] = s
		}
		want[i] = v
	}

	for _, w := range []int{1, 8} {
		got, err := score.VectorsParallel(insts, basis, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: basis fast path differs from old scoring path", w)
		}
	}
}

func TestKMeansRestartsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	points := make([][]float64, 150)
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	var want *cluster.Result
	for _, w := range workerCounts() {
		got, err := cluster.KMeans(points, cluster.Config{K: 5, Seed: 2, Restarts: 8, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: k-means result differs from serial run", w)
		}
	}
}

// TestExperimentsSweepEquivalence runs each experiment whose variants fan
// out over workers — rebuilt DCs per sweep point, or one shared fleet and
// Optimize result per ablation or extension — and pins its rows.
func TestExperimentsSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	dc := workload.DC3
	for _, c := range []struct {
		name string
		run  func(experiments.Options) (any, error)
	}{
		{"SweepBaselineMix", func(o experiments.Options) (any, error) {
			return experiments.SweepBaselineMix(dc, o, []float64{0, 0.5})
		}},
		{"AblationEmbedding", func(o experiments.Options) (any, error) { return experiments.AblationEmbedding(dc, o) }},
		{"AblationTrainWeeks", func(o experiments.Options) (any, error) { return experiments.AblationTrainWeeks(dc, o) }},
		{"AblationRemap", func(o experiments.Options) (any, error) { return experiments.AblationRemap(dc, o, 16) }},
		{"ExtensionESD", func(o experiments.Options) (any, error) { return experiments.ExtensionESD(dc, o, 10, 1.02) }},
		{"ExtensionCapping", func(o experiments.Options) (any, error) { return experiments.ExtensionCapping(dc, o, 1.02) }},
	} {
		var want any
		for _, w := range workerCounts() {
			opt := experiments.Options{Scale: 1, Step: time.Hour, Seed: 1, TopServices: 8, Workers: w}
			got, err := c.run(opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: rows differ from serial run: got %+v want %+v", c.name, w, got, want)
			}
		}
	}
}
