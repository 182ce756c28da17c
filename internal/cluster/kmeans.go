// Package cluster provides the clustering machinery SmoothOperator's
// placement step relies on: k-means with k-means++ seeding (§3.5 applies
// k-means to instances embedded in asynchrony-score space), a balanced
// variant producing equal-size clusters ("Each of these clusters have the
// same number of instances"), and an exact t-SNE for the Fig. 8 style
// two-dimensional projection.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/parallel"
)

// Errors returned by clustering entry points.
var (
	ErrNoPoints = errors.New("cluster: no points")
	ErrBadK     = errors.New("cluster: k must be in [1, len(points)]")
	ErrRagged   = errors.New("cluster: points have differing dimensions")
	// ErrNonFinite reports a NaN or ±Inf coordinate; the wrapping error
	// names the point and dimension.
	ErrNonFinite = errors.New("cluster: non-finite coordinate")
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

// sqDists sets row[c] = sqDist(p, centroids[c]) for every centroid, summing
// four centroids at a time. Each sum is its own chain of additions in
// sqDist's order, so every value is sqDist's bit for bit; four independent
// chains keep the floating-point unit busy where one waits on each add.
func sqDists(row, p []float64, centroids [][]float64) {
	c := 0
	for ; c+4 <= len(centroids); c += 4 {
		c0, c1, c2, c3 := centroids[c][:len(p)], centroids[c+1][:len(p)], centroids[c+2][:len(p)], centroids[c+3][:len(p)]
		var d0, d1, d2, d3 float64
		for j, v := range p {
			x0, x1, x2, x3 := v-c0[j], v-c1[j], v-c2[j], v-c3[j]
			d0 += x0 * x0
			d1 += x1 * x1
			d2 += x2 * x2
			d3 += x3 * x3
		}
		row[c], row[c+1], row[c+2], row[c+3] = d0, d1, d2, d3
	}
	for ; c < len(centroids); c++ {
		row[c] = sqDist(p, centroids[c])
	}
}

func validate(points [][]float64, k int) error {
	if len(points) == 0 {
		return ErrNoPoints
	}
	if k < 1 || k > len(points) {
		return ErrBadK
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return ErrRagged
		}
		for d, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: point %d dimension %d is %v", ErrNonFinite, i, d, v)
			}
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
	row := make([]float64, k)
	iters := 0
	for ; iters < maxIters; iters++ {
		changed := false
		for i := range sizes {
			sizes[i] = 0
		}
		for i, p := range points {
			sqDists(row, p, centroids)
			bestC := 0
			for c, d := range row {
				if d < row[bestC] {
					bestC = c
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

	// dist holds every point's squared distance to every centroid, row
	// dist[i*k:(i+1)*k] for point i, refilled by each refine pass.
	dist := make([]float64, n*k)
	prefs := make([]int, k)
	refine := func() {
		// Order points by how much they prefer their best cluster (most
		// decisive first): the margin between their two smallest distances.
		type cand struct {
			point  int
			margin float64
		}
		cands := make([]cand, n)
		for i, p := range points {
			row := dist[i*k : (i+1)*k]
			sqDists(row, p, res.Centroids)
			min1, min2 := math.Inf(1), math.Inf(1)
			for _, d := range row {
				if d < min1 {
					min1, min2 = d, min1
				} else if d < min2 {
					min2 = d
				}
			}
			margin := 0.0
			if k > 1 {
				margin = min2 - min1
			}
			cands[i] = cand{point: i, margin: margin}
		}
		// slices.SortFunc is sort.Slice's pdqsort with "cmp < 0" as its less,
		// so a comparison negative exactly where balancedKMeansOracle's less
		// is true makes the same comparisons and swaps: the same order, NaN
		// margins (unequal, never greater) included.
		slices.SortFunc(cands, func(a, b cand) int {
			if a.margin != b.margin {
				if a.margin > b.margin {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.point, b.point)
		})
		remaining := append([]int(nil), capacity...)
		for i := range res.Sizes {
			res.Sizes[i] = 0
		}
		// Each point takes its nearest centroid with capacity left. That is
		// the first available cluster in its distance order unless several
		// available ones tie at that distance; then the order among them is
		// the sort's, so sort the row and take its first available one.
		for _, cd := range cands {
			row := dist[cd.point*k : (cd.point+1)*k]
			best, tied := -1, false
			for c, d := range row {
				if remaining[c] == 0 {
					continue
				}
				switch {
				case best < 0 || d < row[best]:
					best, tied = c, false
				case d == row[best]:
					tied = true
				}
			}
			if tied {
				for c := range prefs {
					prefs[c] = c
				}
				slices.SortFunc(prefs, func(a, b int) int {
					if row[a] < row[b] {
						return -1
					}
					return 1
				})
				for _, c := range prefs {
					if remaining[c] > 0 {
						best = c
						break
					}
				}
			}
			res.Assign[cd.point] = best
			remaining[best]--
			res.Sizes[best]++
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
