// Package cluster provides the clustering machinery SmoothOperator's
// placement step relies on: k-means with k-means++ seeding (§3.5 applies
// k-means to instances embedded in asynchrony-score space), a balanced
// variant producing equal-size clusters ("Each of these clusters have the
// same number of instances"), and an exact t-SNE for the Fig. 8 style
// two-dimensional projection.
package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// Errors returned by clustering entry points.
var (
	ErrNoPoints = errors.New("cluster: no points")
	ErrBadK     = errors.New("cluster: k must be in [1, len(points)]")
	ErrRagged   = errors.New("cluster: points have differing dimensions")
)

// Result is a clustering of n points into k clusters.
type Result struct {
	// Assign maps point index → cluster index.
	Assign []int
	// Centroids holds the k cluster centres.
	Centroids [][]float64
	// Sizes holds per-cluster point counts.
	Sizes []int
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// Members returns the point indices assigned to cluster c, in order.
func (r *Result) Members(c int) []int {
	var out []int
	for i, a := range r.Assign {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

// Config tunes KMeans.
type Config struct {
	// K is the number of clusters.
	K int
	// Restarts runs the whole algorithm multiple times and keeps the best
	// inertia; 0 means 1 run. Restarts are independent (each gets its own
	// rng derived from Seed and the restart index) and run concurrently.
	Restarts int
	// Seed makes the run deterministic.
	Seed int64
	// Workers bounds the goroutines running restarts; 0 means the package
	// default (SMOOTHOP_WORKERS or GOMAXPROCS). The result is identical for
	// any worker count.
	Workers int
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

func validate(points [][]float64, k int) error {
	if len(points) == 0 {
		return ErrNoPoints
	}
	if k < 1 || k > len(points) {
		return ErrBadK
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return ErrRagged
		}
	}
	return nil
}

// seedPlusPlus picks k initial centroids with the k-means++ rule.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	chosen := make([]bool, len(points))
	firstIdx := rng.Intn(len(points))
	chosen[firstIdx] = true
	centroids = append(centroids, append([]float64(nil), points[firstIdx]...))
	dists := make([]float64, len(points))
	for i, p := range points {
		dists[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range dists {
			total += d
		}
		var idx int
		if total == 0 {
			// Every remaining point coincides with an already-chosen
			// centroid. Picking uniformly from *all* points here could
			// re-pick a chosen point and duplicate a centroid, leaving its
			// cluster empty; restrict the fallback to points not yet chosen
			// (always non-empty since k ≤ len(points)).
			free := make([]int, 0, len(points)-len(centroids))
			for i := range points {
				if !chosen[i] {
					free = append(free, i)
				}
			}
			idx = free[rng.Intn(len(free))]
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = len(points) - 1
			for i, d := range dists {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		chosen[idx] = true
		centroids = append(centroids, append([]float64(nil), points[idx]...))
		for i, p := range points {
			if d := sqDist(p, centroids[len(centroids)-1]); d < dists[i] {
				dists[i] = d
			}
		}
	}
	return centroids
}

// KMeans clusters points with Lloyd's algorithm and k-means++ seeding.
// Empty clusters are repaired by stealing the point farthest from its
// centroid.
func KMeans(points [][]float64, cfg Config) (*Result, error) {
	if err := validate(points, cfg.K); err != nil {
		return nil, err
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	// Restarts are independent: each derives its own rng from (Seed, index)
	// and writes its result at its index, so the best-inertia selection below
	// — in index order, earliest wins on ties — is bit-identical to a serial
	// run for any worker count.
	results := make([]*Result, restarts)
	if err := parallel.ForEach(context.Background(), restarts, cfg.Workers, func(r int) error {
		rng := rand.New(rand.NewSource(restartSeed(cfg.Seed, r)))
		results[r] = lloyd(points, cfg.K, rng)
		return nil
	}); err != nil {
		return nil, err
	}
	best := results[0]
	var iters uint64
	for _, res := range results {
		if res.Inertia < best.Inertia {
			best = res
		}
		iters += uint64(res.Iterations)
	}
	obsKMeansRuns.Inc()
	obsRestarts.Add(uint64(restarts))
	obsIterations.Add(iters)
	return best, nil
}

// restartSeed derives the rng seed of restart r. Restart 0 uses the
// configured seed unchanged (so single-restart runs reproduce the historical
// serial results); later restarts get independent index-addressed streams
// via a SplitMix64-style mix, never a shared sequential stream.
func restartSeed(seed int64, r int) int64 {
	if r == 0 {
		return seed
	}
	z := uint64(seed) + uint64(r)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// maxIters bounds Lloyd iterations.
const maxIters = 100

func lloyd(points [][]float64, k int, rng *rand.Rand) *Result {
	dim := len(points[0])
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)
	iters := 0
	for ; iters < maxIters; iters++ {
		changed := false
		for i := range sizes {
			sizes[i] = 0
		}
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(p, cent); d < bestD {
					bestD, bestC = d, c
				}
			}
			if assign[i] != bestC {
				changed = true
				assign[i] = bestC
			}
			sizes[bestC]++
		}
		// Repair empty clusters: move in the globally worst-fitting point.
		for c := 0; c < k; c++ {
			if sizes[c] > 0 {
				continue
			}
			worstI, worstD := -1, -1.0
			for i, p := range points {
				if sizes[assign[i]] <= 1 {
					continue
				}
				if d := sqDist(p, centroids[assign[i]]); d > worstD {
					worstD, worstI = d, i
				}
			}
			if worstI >= 0 {
				sizes[assign[worstI]]--
				assign[worstI] = c
				sizes[c] = 1
				changed = true
			}
		}
		// Recompute centroids.
		for c := range centroids {
			for d := 0; d < dim; d++ {
				centroids[c][d] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			for d := 0; d < dim; d++ {
				centroids[c][d] += p[d]
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] /= float64(sizes[c])
			}
		}
		if !changed {
			break
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += sqDist(p, centroids[assign[i]])
	}
	return &Result{Assign: assign, Centroids: centroids, Sizes: sizes, Inertia: inertia, Iterations: iters}
}

// BalancedKMeans produces clusters whose sizes differ by at most one:
// ⌈n/k⌉ for the first n mod k clusters and ⌊n/k⌋ for the rest. It runs
// plain k-means first, then assigns points to clusters greedily by distance
// under capacity constraints, and finishes with centroid refinement passes.
//
// The placement step needs this because it deals |c_j|/q instances of every
// cluster to each child power node (§3.5); wildly uneven clusters would
// leave remainders that skew the deal.
func BalancedKMeans(points [][]float64, cfg Config) (*Result, error) {
	if err := validate(points, cfg.K); err != nil {
		return nil, err
	}
	base, err := KMeans(points, cfg)
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
		// Order points by how much they prefer their best cluster (most
		// decisive first), then fill under capacity.
		type cand struct {
			point  int
			prefs  []int // cluster indices sorted by distance
			margin float64
		}
		cands := make([]cand, n)
		// dist[c] is the point's squared distance to centroid c, computed
		// once per point and pass, never inside the comparator.
		dist, order := make([]float64, k), make([]int, n*k)
		for i, p := range points {
			prefs := order[i*k : (i+1)*k]
			for c := range prefs {
				prefs[c] = c
				dist[c] = sqDist(p, res.Centroids[c])
			}
			sort.Slice(prefs, func(a, b int) bool { return dist[prefs[a]] < dist[prefs[b]] })
			margin := 0.0
			if k > 1 {
				margin = dist[prefs[1]] - dist[prefs[0]]
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
		// Recompute centroids from the balanced assignment.
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
