package score

import (
	"errors"
	"fmt"
	"math"
)

// FARB-style composite objective for multi-resource placement.
//
// The asynchrony score (Eq. 6) is power-only; when nodes also carry
// thermal, network or rack-space capacity, a placement can leave a host
// with abundant residual in one dimension and none in another — stranded
// headroom that admits nothing. The FARB heuristic (Fragmentation-Aware
// Resource Balance, SNIPPETS.md snippet 3) scores each candidate host by
// the residual vector it would have *after* the placement:
//
//	balance  = max(res) − min(res)        // spread across dimensions
//	fullness = mean(res)                  // prefer filling hosts up
//	l2       = sqrt(Σ res²)               // residual magnitude tiebreaker
//	cost     = Wb·balance + Wf·fullness + Wl·l2 − Wa·asyncNorm
//
// over residual *fractions* res_d = free_d/capacity_d ∈ [0, 1], minimized.
// Balance is weighted most heavily: it is the term that directly penalizes
// creating stranded resources. The optional asynchrony reward term (Wa,
// default 0) lets the composite keep the paper's power-smoothing pressure:
// asyncNorm must be the candidate's differential asynchrony score
// normalized to [0, 1] (see placement.OnlineFARB).

// Errors returned by the composite objective.
var (
	ErrNoResiduals = errors.New("score: composite needs at least one residual dimension")
	ErrBadResidual = errors.New("score: residual fractions must be finite and non-negative")
	ErrBadWeights  = errors.New("score: FARB weights must be finite and non-negative")
)

// FARBWeights weight the components of the composite objective. The zero
// value means "use the defaults" (see DefaultFARBWeights); explicit zeros
// for individual components are expressed by setting any other component
// non-zero.
//
// smoothop:immutable
type FARBWeights struct {
	// Balance weights max−min residual spread (stranded-resource pressure).
	Balance float64
	// Fullness weights the mean residual (bin-packing pressure).
	Fullness float64
	// Residual weights the L2 norm of the residual vector (tiebreaker).
	Residual float64
	// Asynchrony rewards (subtracts) the candidate's normalized differential
	// asynchrony score, keeping the paper's power-smoothing objective in the
	// mix. 0 drops the term.
	Asynchrony float64
}

// DefaultFARBWeights returns the snippet's published defaults: balance
// dominates (w_b = 2.0), fullness half of that (w_f = 1.0), the L2
// residual a tiebreaker (w_l = 0.5), no asynchrony term.
func DefaultFARBWeights() FARBWeights {
	return FARBWeights{Balance: 2.0, Fullness: 1.0, Residual: 0.5}
}

// IsZero reports whether the weights are entirely unset (the "use
// defaults" sentinel).
func (w FARBWeights) IsZero() bool {
	return w == FARBWeights{}
}

// OrDefault resolves the zero value to DefaultFARBWeights.
func (w FARBWeights) OrDefault() FARBWeights {
	if w.IsZero() {
		return DefaultFARBWeights()
	}
	return w
}

// Validate rejects negative or non-finite weights.
func (w FARBWeights) Validate() error {
	for _, v := range [...]float64{w.Balance, w.Fullness, w.Residual, w.Asynchrony} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: %+v", ErrBadWeights, w)
		}
	}
	return nil
}

// Composite computes the FARB composite cost (lower is better) of a
// candidate's post-placement residual fractions, with asyncNorm ∈ [0, 1]
// the candidate's normalized asynchrony reward (pass 0 when the weights
// carry no asynchrony term). Residuals must be finite and non-negative;
// they are conventionally fractions of capacity, so balance, fullness and
// l2 are all scale-free. The weights' zero value resolves to the defaults.
//
// The kernel is allocation-free: one pass over residuals, no intermediate
// slices (BenchmarkFARBComposite reports its allocations).
func Composite(w FARBWeights, residuals []float64, asyncNorm float64) (float64, error) {
	if len(residuals) == 0 {
		return 0, ErrNoResiduals
	}
	w = w.OrDefault()
	if err := w.Validate(); err != nil {
		return 0, err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var sum, sq float64
	for _, r := range residuals {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return 0, fmt.Errorf("%w: got %v", ErrBadResidual, r)
		}
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
		sum += r
		sq += r * r
	}
	balance := hi - lo
	fullness := sum / float64(len(residuals))
	l2 := math.Sqrt(sq)
	return w.Balance*balance + w.Fullness*fullness + w.Residual*l2 - w.Asynchrony*asyncNorm, nil
}
