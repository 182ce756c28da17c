package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// balancedKMeansOracle is BalancedKMeans as it was before refine took each
// point's centroid distances once per pass: it starts from kmeansOracle, and
// its preference sort recomputes both squared distances inside every
// comparison, then walks each point's full order. It is kept only as the
// reference the production refine must reproduce bit for bit.
func balancedKMeansOracle(points [][]float64, cfg Config) (*Result, error) {
	if err := validate(points, cfg.K); err != nil {
		return nil, err
	}
	base, err := kmeansOracle(points, cfg)
	if err != nil {
		return nil, err
	}
	k := cfg.K
	n := len(points)
	capacity := make([]int, k)
	for c := range capacity {
		capacity[c] = n / k
		if c < n%k {
			capacity[c]++
		}
	}
	res := &Result{Centroids: base.Centroids, Assign: make([]int, n), Sizes: make([]int, k), Iterations: base.Iterations}

	refine := func() {
		type cand struct {
			point  int
			prefs  []int
			margin float64
		}
		cands := make([]cand, n)
		for i, p := range points {
			prefs := make([]int, k)
			for c := range prefs {
				prefs[c] = c
			}
			sort.Slice(prefs, func(a, b int) bool {
				return sqDist(p, res.Centroids[prefs[a]]) < sqDist(p, res.Centroids[prefs[b]])
			})
			margin := 0.0
			if k > 1 {
				margin = sqDist(p, res.Centroids[prefs[1]]) - sqDist(p, res.Centroids[prefs[0]])
			}
			cands[i] = cand{point: i, prefs: prefs, margin: margin}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].margin != cands[b].margin {
				return cands[a].margin > cands[b].margin
			}
			return cands[a].point < cands[b].point
		})
		remaining := append([]int(nil), capacity...)
		for i := range res.Sizes {
			res.Sizes[i] = 0
		}
		for _, cd := range cands {
			for _, c := range cd.prefs {
				if remaining[c] > 0 {
					res.Assign[cd.point] = c
					remaining[c]--
					res.Sizes[c]++
					break
				}
			}
		}
	}

	const passes = 4
	dim := len(points[0])
	for pass := 0; pass < passes; pass++ {
		refine()
		for c := range res.Centroids {
			for d := 0; d < dim; d++ {
				res.Centroids[c][d] = 0
			}
		}
		for i, p := range points {
			c := res.Assign[i]
			for d := 0; d < dim; d++ {
				res.Centroids[c][d] += p[d]
			}
		}
		for c := range res.Centroids {
			if res.Sizes[c] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				res.Centroids[c][d] /= float64(res.Sizes[c])
			}
		}
	}
	refine()
	res.Inertia = 0
	for i, p := range points {
		res.Inertia += sqDist(p, res.Centroids[res.Assign[i]])
	}
	return res, nil
}

// uniformPoints draws n points uniformly from [0, 1)^dim.
func uniformPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, dim)
		for d := range points[i] {
			points[i][d] = rng.Float64()
		}
	}
	return points
}

// sameClustering fails unless two results agree exactly: assignment, sizes,
// iteration count, and the bits of every centroid coordinate and the inertia.
func sameClustering(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Assign) != len(want.Assign) || len(got.Sizes) != len(want.Sizes) || len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: shape differs from the oracle", label)
	}
	for i := range got.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: point %d in cluster %d, oracle %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range got.Sizes {
		if got.Sizes[c] != want.Sizes[c] {
			t.Fatalf("%s: sizes %v, oracle %v", label, got.Sizes, want.Sizes)
		}
		for d := range got.Centroids[c] {
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				t.Fatalf("%s: centroid %d[%d] = %v, oracle %v", label, c, d, got.Centroids[c][d], want.Centroids[c][d])
			}
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) || got.Iterations != want.Iterations {
		t.Fatalf("%s: inertia %v after %d iterations, oracle %v after %d",
			label, got.Inertia, got.Iterations, want.Inertia, want.Iterations)
	}
}

// TestBalancedKMeansMatchesOracle pins BalancedKMeans to the comparator-
// recomputing refine on random points (Bootstrap's shape among them) and on
// coincident and lattice points, whose tied distances make the result depend
// on the preference sort's order among equal keys.
func TestBalancedKMeansMatchesOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		for _, restarts := range []int{1, 3} {
			cfg := Config{K: in.k, Seed: 11, Restarts: restarts}
			got, err := BalancedKMeans(in.points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := balancedKMeansOracle(in.points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameClustering(t, fmt.Sprintf("%s restarts %d", in.name, restarts), got, want)
		}
	}
}
