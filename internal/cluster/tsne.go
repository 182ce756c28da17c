package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// TSNEConfig tunes the exact t-SNE implementation used for Fig. 8's
// two-dimensional projection of instances in asynchrony-score space.
type TSNEConfig struct {
	// Perplexity balances local/global structure; typical 5–50.
	Perplexity float64
	// Iterations of gradient descent; 0 means 500.
	Iterations int
	// Seed makes the embedding deterministic.
	Seed int64
}

// TSNE embeds points into 2-D with exact (non-Barnes-Hut) t-SNE
// (van der Maaten & Hinton, JMLR 2008). Suitable for the few-hundred to
// few-thousand point populations a suite holds.
func TSNE(points [][]float64, cfg TSNEConfig) ([][2]float64, error) {
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, ErrRagged
		}
	}
	if n == 1 {
		return make([][2]float64, 1), nil
	}
	perplexity := cfg.Perplexity
	if perplexity <= 0 {
		perplexity = 30
	}
	if maxPerp := float64(n-1) / 3; perplexity > maxPerp {
		perplexity = math.Max(2, maxPerp)
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 500
	}
	const lr = 100 // learning rate of gradient descent

	// Pairwise squared distances in the input space.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			d := sqDist(points[i], points[j])
			d2[i][j] = d
			d2[j][i] = d
		}
	}

	// Conditional probabilities with per-point bandwidth found by binary
	// search on perplexity.
	p := make([][]float64, n)
	logPerp := math.Log(perplexity)
	for i := 0; i < n; i++ {
		p[i] = make([]float64, n)
		lo, hi := 0.0, math.Inf(1)
		beta := 1.0
		for iter := 0; iter < 50; iter++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				p[i][j] = math.Exp(-beta * d2[i][j])
				sum += p[i][j]
			}
			if sum == 0 {
				sum = 1e-12
			}
			var entropy float64
			for j := 0; j < n; j++ {
				if j == i || p[i][j] == 0 {
					continue
				}
				pj := p[i][j] / sum
				p[i][j] = pj
				if pj > 1e-12 {
					entropy -= pj * math.Log(pj)
				}
			}
			diff := entropy - logPerp
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 { // entropy too high → narrow the kernel
				lo = beta
				if math.IsInf(hi, 1) {
					beta *= 2
				} else {
					beta = (beta + hi) / 2
				}
			} else {
				hi = beta
				beta = (beta + lo) / 2
			}
		}
	}
	// Symmetrize and normalize; early exaggeration ×4 for the first quarter.
	pij := make([][]float64, n)
	var psum float64
	for i := range pij {
		pij[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := (p[i][j] + p[j][i]) / (2 * float64(n))
			pij[i][j] = math.Max(v, 1e-12)
			psum += pij[i][j]
		}
	}
	_ = psum

	rng := rand.New(rand.NewSource(cfg.Seed))
	y := make([][2]float64, n)
	vel := make([][2]float64, n)
	for i := range y {
		y[i][0] = rng.NormFloat64() * 1e-2
		y[i][1] = rng.NormFloat64() * 1e-2
	}

	exaggerate := iters / 4
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for iter := 0; iter < iters; iter++ {
		exag := 1.0
		if iter < exaggerate {
			exag = 4
		}
		momentum := 0.5
		if iter >= 250 {
			momentum = 0.8
		}
		// Low-dimensional affinities (Student-t kernel).
		var qsum float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := y[i][0] - y[j][0]
				dy := y[i][1] - y[j][1]
				v := 1 / (1 + dx*dx + dy*dy)
				q[i][j] = v
				q[j][i] = v
				qsum += 2 * v
			}
		}
		if qsum == 0 {
			qsum = 1e-12
		}
		// Gradient step.
		for i := 0; i < n; i++ {
			var gx, gy float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				qn := math.Max(q[i][j]/qsum, 1e-12)
				mult := (exag*pij[i][j] - qn) * q[i][j]
				gx += 4 * mult * (y[i][0] - y[j][0])
				gy += 4 * mult * (y[i][1] - y[j][1])
			}
			vel[i][0] = momentum*vel[i][0] - lr*gx
			vel[i][1] = momentum*vel[i][1] - lr*gy
			y[i][0] += vel[i][0]
			y[i][1] += vel[i][1]
		}
		// Re-centre to keep the embedding bounded.
		var cx, cy float64
		for i := range y {
			cx += y[i][0]
			cy += y[i][1]
		}
		cx /= float64(n)
		cy /= float64(n)
		for i := range y {
			y[i][0] -= cx
			y[i][1] -= cy
		}
	}
	for i := range y {
		if math.IsNaN(y[i][0]) || math.IsNaN(y[i][1]) {
			return nil, fmt.Errorf("cluster: t-SNE diverged (try a lower learning rate)")
		}
	}
	return y, nil
}
