package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates k well-separated Gaussian blobs of perCluster points each.
func blobs(k, perCluster, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var points [][]float64
	var labels []int
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for d := range center {
			center[d] = float64(c*20) + rng.Float64()
		}
		for i := 0; i < perCluster; i++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = center[d] + rng.NormFloat64()*0.5
			}
			points = append(points, p)
			labels = append(labels, c)
		}
	}
	return points, labels
}

// agrees reports whether a clustering recovers ground-truth labels up to
// cluster renaming.
func agrees(assign, labels []int, k int) bool {
	mapping := make(map[int]int)
	for i, a := range assign {
		if want, ok := mapping[a]; ok {
			if want != labels[i] {
				return false
			}
		} else {
			mapping[a] = labels[i]
		}
	}
	return len(mapping) == k
}

func TestKMeansRecoverBlobs(t *testing.T) {
	points, labels := blobs(3, 30, 4, 1)
	res, err := KMeans(points, Config{K: 3, Seed: 42, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !agrees(res.Assign, labels, 3) {
		t.Fatal("k-means failed to recover well-separated blobs")
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia = %v", res.Inertia)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(points) {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	points, _ := blobs(3, 20, 3, 2)
	a, _ := KMeans(points, Config{K: 3, Seed: 7})
	b, _ := KMeans(points, Config{K: 3, Seed: 7})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give same assignment")
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, Config{K: 1}); err != ErrNoPoints {
		t.Fatalf("no points: %v", err)
	}
	pts := [][]float64{{1}, {2}}
	if _, err := KMeans(pts, Config{K: 0}); err != ErrBadK {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := KMeans(pts, Config{K: 3}); err != ErrBadK {
		t.Fatalf("k>n: %v", err)
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := KMeans(ragged, Config{K: 1}); err != ErrRagged {
		t.Fatalf("ragged: %v", err)
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {10}, {20}}
	res, err := KMeans(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sizes {
		if s != 1 {
			t.Fatalf("sizes = %v", res.Sizes)
		}
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("inertia should be ~0, got %v", res.Inertia)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := KMeans(pts, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 4 {
		t.Fatal("all points must be assigned")
	}
}

func TestKMeansMembers(t *testing.T) {
	pts := [][]float64{{0}, {0.1}, {100}}
	res, err := KMeans(pts, Config{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	loner := res.Assign[2]
	members := res.Members(loner)
	if len(members) != 1 || members[0] != 2 {
		t.Fatalf("Members(%d) = %v", loner, members)
	}
}

// Property: every point is assigned to its nearest centroid at convergence.
func TestKMeansNearestCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		points, _ := blobs(3, 15, 2, seed%1000)
		res, err := KMeans(points, Config{K: 3, Seed: seed})
		if err != nil {
			return false
		}
		for i, p := range points {
			own := sqDist(p, res.Centroids[res.Assign[i]])
			for _, c := range res.Centroids {
				if sqDist(p, c) < own-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedKMeansSizes(t *testing.T) {
	points, _ := blobs(3, 25, 3, 9)
	// 75 points into 4 clusters: sizes must be 19,19,19,18.
	res, err := BalancedKMeans(points, Config{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sizes := append([]int(nil), res.Sizes...)
	max, min := 0, len(points)
	total := 0
	for _, s := range sizes {
		total += s
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	if total != len(points) {
		t.Fatalf("sizes sum %d", total)
	}
	if max-min > 1 {
		t.Fatalf("unbalanced sizes: %v", sizes)
	}
}

func TestBalancedKMeansExactDivision(t *testing.T) {
	points, labels := blobs(4, 20, 3, 13)
	res, err := BalancedKMeans(points, Config{K: 4, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sizes {
		if s != 20 {
			t.Fatalf("sizes = %v, want all 20", res.Sizes)
		}
	}
	// With well-separated equal blobs, balanced k-means should still recover
	// the ground truth.
	if !agrees(res.Assign, labels, 4) {
		t.Fatal("balanced k-means failed on separable equal blobs")
	}
}

// Property: balanced sizes differ by ≤1 for any n, k.
func TestBalancedSizesProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8, seed int64) bool {
		n := int(nRaw%40) + 2
		k := int(kRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		res, err := BalancedKMeans(points, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		min, max := n, 0
		for _, s := range res.Sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTSNESeparatesBlobs(t *testing.T) {
	points, labels := blobs(2, 15, 5, 31)
	emb, err := TSNE(points, TSNEConfig{Perplexity: 8, Iterations: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != len(points) {
		t.Fatalf("embedding size %d", len(emb))
	}
	// Mean within-cluster distance must be below mean across-cluster
	// distance in the embedding.
	var within, across float64
	var nw, na int
	for i := range emb {
		for j := i + 1; j < len(emb); j++ {
			dx := emb[i][0] - emb[j][0]
			dy := emb[i][1] - emb[j][1]
			d := math.Hypot(dx, dy)
			if labels[i] == labels[j] {
				within += d
				nw++
			} else {
				across += d
				na++
			}
		}
	}
	if within/float64(nw) >= across/float64(na) {
		t.Fatalf("t-SNE did not separate blobs: within %v across %v", within/float64(nw), across/float64(na))
	}
}

func TestTSNEEdgeCases(t *testing.T) {
	if _, err := TSNE(nil, TSNEConfig{}); err != ErrNoPoints {
		t.Fatalf("empty: %v", err)
	}
	one, err := TSNE([][]float64{{1, 2}}, TSNEConfig{})
	if err != nil || len(one) != 1 {
		t.Fatalf("single point: %v %v", one, err)
	}
	if _, err := TSNE([][]float64{{1}, {1, 2}}, TSNEConfig{}); err != ErrRagged {
		t.Fatalf("ragged: %v", err)
	}
	// Tiny population: perplexity auto-clamps instead of failing.
	small, err := TSNE([][]float64{{0}, {1}, {5}}, TSNEConfig{Perplexity: 50, Iterations: 50, Seed: 1})
	if err != nil || len(small) != 3 {
		t.Fatalf("small population: %v %v", small, err)
	}
}

func TestTSNEDeterministic(t *testing.T) {
	points, _ := blobs(2, 10, 3, 77)
	a, err := TSNE(points, TSNEConfig{Iterations: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TSNE(points, TSNEConfig{Iterations: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the embedding")
		}
	}
}
