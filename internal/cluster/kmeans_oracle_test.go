package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// kmeansOracle is KMeans as it was before the assignment step summed four
// centroids' distances at once: restarts run serially, each seeded by
// seedPlusPlusOracle and iterated by lloydOracle, and the first restart with
// the least inertia wins. It is kept only as the reference KMeans must
// reproduce bit for bit.
func kmeansOracle(points [][]float64, cfg Config) (*Result, error) {
	if err := validate(points, cfg.K); err != nil {
		return nil, err
	}
	var best *Result
	for r := 0; r < max(cfg.Restarts, 1); r++ {
		res := lloydOracle(points, cfg.K, rand.New(rand.NewSource(restartSeed(cfg.Seed, r))))
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// seedPlusPlusOracle is the k-means++ seeding lloydOracle starts from.
func seedPlusPlusOracle(points [][]float64, k int, rng *rand.Rand) [][]float64 {
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

// lloydOracle is Lloyd's algorithm with one sqDist call per point and
// centroid, keeping the lowest-index nearest centroid.
func lloydOracle(points [][]float64, k int, rng *rand.Rand) *Result {
	dim := len(points[0])
	centroids := seedPlusPlusOracle(points, k, rng)
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

type oracleInput struct {
	name   string
	points [][]float64
	k      int
}

// oracleInputs builds the inputs TestBalancedKMeansMatchesOracle clusters:
// blobs, uniform points (Bootstrap's shape among them), coincident points
// whose distance rows tie wholesale, and an integer lattice whose distinct
// centroids sit at equal distances.
func oracleInputs() []oracleInput {
	var inputs []oracleInput
	for seed := int64(1); seed <= 6; seed++ {
		blobPts, _ := blobs(4, 15, 3, seed)
		inputs = append(inputs,
			oracleInput{fmt.Sprintf("blobs seed %d", seed), blobPts, 2 + int(seed)%5},
			oracleInput{fmt.Sprintf("uniform seed %d", seed), uniformPoints(40+int(seed)*7, 2, seed), 1 + int(seed)*3})
	}
	inputs = append(inputs, oracleInput{"bootstrap shape", uniformPoints(625, 8, 99), 80})
	rng := rand.New(rand.NewSource(5))
	coincident := make([][]float64, 160)
	for i := range coincident {
		v := float64(rng.Intn(3))
		coincident[i] = []float64{v, v}
	}
	inputs = append(inputs,
		oracleInput{"coincident", coincident[:60], 7},
		oracleInput{"coincident k=n", coincident[:9], 9},
		oracleInput{"coincident k=40", coincident, 40})
	var lattice [][]float64
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			lattice = append(lattice, []float64{float64(x), float64(y)})
		}
	}
	return append(inputs, oracleInput{"lattice", lattice, 6}, oracleInput{"lattice k=32", lattice, 32})
}

// TestKMeansMatchesOracle pins KMeans — seeding, the assignment scan, the
// empty-cluster repair and restart selection — to kmeansOracle.
func TestKMeansMatchesOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		for _, restarts := range []int{1, 3} {
			cfg := Config{K: in.k, Seed: 11, Restarts: restarts}
			got, err := KMeans(in.points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := kmeansOracle(in.points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameClustering(t, fmt.Sprintf("%s restarts %d", in.name, restarts), got, want)
		}
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		points := [][]float64{{0, 1}, {2, 3}, {4, v}, {6, 7}}
		for name, run := range map[string]func([][]float64, Config) (*Result, error){
			"KMeans": KMeans, "BalancedKMeans": BalancedKMeans,
		} {
			_, err := run(points, Config{K: 2, Seed: 1})
			if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "point 2 dimension 1") {
				t.Fatalf("%s with %v at point 2 dimension 1: %v", name, v, err)
			}
		}
	}
}

// fuzzPoints decodes points of dimension dim from data, one coordinate per
// byte, at most 48 points. The low nibble picks a kind: zero, negative zero,
// small integers (coincident points and lattices), quarters and eighths, or
// magnitudes from 1e154 to ±MaxFloat64, whose squared differences overflow
// to +Inf (so distances tie at +Inf and margins are Inf − Inf = NaN). Three
// of the 256 byte values give NaN or ±Inf.
func fuzzPoints(data []byte, dim int) [][]float64 {
	n := min(len(data)/dim, 48)
	points := make([][]float64, n)
	for i := range points {
		points[i] = make([]float64, dim)
		for d := range points[i] {
			b := data[i*dim+d]
			hi := float64(b >> 4)
			var v float64
			switch b & 15 {
			case 0, 1, 2, 3:
				v = float64(b & 15)
			case 4:
				v = math.Copysign(0, -1)
			case 5, 6:
				v = hi
			case 7:
				v = -hi
			case 8, 9:
				v = float64(int8(b)) / 8
			case 10:
				v = (hi + 1) * 1e154
			case 11:
				v = -(hi + 1) * 1e154
			case 12:
				v = math.MaxFloat64
			case 13:
				v = -math.MaxFloat64
			case 14:
				v = hi / 4
			case 15:
				switch b >> 4 {
				case 13:
					v = math.Inf(-1)
				case 14:
					v = math.Inf(1)
				case 15:
					v = math.NaN()
				default:
					v = hi - 7
				}
			}
			points[i][d] = v
		}
	}
	return points
}

// FuzzBalancedKMeansMatchesOracle requires KMeans and BalancedKMeans to
// match kmeansOracle and balancedKMeansOracle bit for bit on fuzzPoints
// inputs, for k in [1, n] and 1–3 restarts, and to refuse any non-finite
// coordinate with ErrNonFinite.
func FuzzBalancedKMeansMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 3, 3}, uint8(1), uint8(3), uint8(0), int64(1))             // coincident
	f.Add([]byte{0x05, 0x15, 0x25, 0x35, 0x45, 0x55, 0x65, 0x75}, uint8(1), uint8(3), uint8(2), int64(2)) // lattice
	f.Add([]byte{0x0a, 0x1a, 0x0b, 0x2a, 0x0c, 0x0d, 0x00, 0x04}, uint8(0), uint8(4), uint8(1), int64(3)) // +Inf distances, ±0
	f.Add([]byte{0x18, 0x28, 0x38, 0x48, 0x58, 0x68, 0xf8, 0xe8, 0x0e, 0x1e}, uint8(1), uint8(2), uint8(0), int64(4))
	f.Add([]byte{0x00, 0x11, 0xff, 0x22}, uint8(1), uint8(0), uint8(0), int64(5)) // NaN
	f.Add([]byte{0x00, 0xef, 0x11, 0xdf}, uint8(0), uint8(1), uint8(0), int64(6)) // ±Inf
	f.Fuzz(func(t *testing.T, data []byte, dim, kb, rb uint8, seed int64) {
		points := fuzzPoints(data, 1+int(dim%4))
		if len(points) == 0 {
			return
		}
		cfg := Config{K: 1 + int(kb)%len(points), Restarts: 1 + int(rb%3), Seed: seed}
		finite := true
		for _, p := range points {
			for _, v := range p {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
		}
		for _, run := range []struct {
			name        string
			got, oracle func([][]float64, Config) (*Result, error)
		}{
			{"KMeans", KMeans, kmeansOracle},
			{"BalancedKMeans", BalancedKMeans, balancedKMeansOracle},
		} {
			got, err := run.got(points, cfg)
			if !finite {
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("%s on non-finite points: %v", run.name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", run.name, err)
			}
			want, err := run.oracle(points, cfg)
			if err != nil {
				t.Fatalf("%s oracle: %v", run.name, err)
			}
			sameClustering(t, fmt.Sprintf("%s k=%d restarts=%d", run.name, cfg.K, cfg.Restarts), got, want)
		}
	})
}
