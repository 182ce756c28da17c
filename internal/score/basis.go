// Basis: the precomputed S-trace scoring basis behind Vector/VectorsParallel.
//
// Scoring an instance against the basis (§3.4) used to re-validate every
// S-trace, re-compute every S-trace peak, and clone two week-long series per
// basis element for every single instance. A Basis does the validation and
// peak computation once at construction, and the fused kernel in vectorInto
// computes each pairwise score in one pass over the traces with no
// intermediate series at all: the normalized S-trace value and the aggregate
// value exist only as scalars in the loop. The float operations are kept in
// exactly the order of the original NormalizeTo + Asynchrony path, so the
// scores are bit-identical to the slow path (equivalence tests pin this
// against Asynchrony, which retains the original clone-based
// implementation).
package score

import (
	"context"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/timeseries"
)

// Basis is a validated I-to-S scoring basis: the S-traces of the top
// power-consumer services with their peaks precomputed. A Basis is immutable
// after construction and safe for concurrent use by any number of scoring
// workers.
type Basis struct {
	straces []timeseries.Series
	peaks   []float64
}

// NewBasis validates the S-traces (every basis element must have a positive
// peak) and precomputes their peaks. The error names the offending basis
// index, exactly like the per-instance validation it replaces.
func NewBasis(straces []timeseries.Series) (*Basis, error) {
	if len(straces) == 0 {
		return nil, ErrNoTraces
	}
	peaks := make([]float64, len(straces))
	for i, st := range straces {
		p := st.Peak()
		if p <= 0 {
			return nil, fmt.Errorf("score: S-trace %d has non-positive peak: %w", i, ErrZeroPeak)
		}
		peaks[i] = p
	}
	return &Basis{straces: append([]timeseries.Series(nil), straces...), peaks: peaks}, nil
}

// Len returns |B|, the dimensionality of the score vectors.
func (b *Basis) Len() int { return len(b.straces) }

// VectorInto computes the score vector into dst (len(dst) must equal
// b.Len()) without allocating: batch callers own the destination memory.
func (b *Basis) VectorInto(dst []float64, instance timeseries.Series) error {
	ip := instance.Peak()
	if ip <= 0 {
		return ErrZeroPeak
	}
	return b.vectorInto(dst, instance, ip)
}

// vectorInto is VectorInto with the instance peak already computed and
// checked by the caller.
func (b *Basis) vectorInto(dst []float64, instance timeseries.Series, ip float64) error {
	if len(dst) != len(b.straces) {
		return fmt.Errorf("score: dst length %d does not match basis size %d", len(dst), len(b.straces))
	}
	for k, st := range b.straces {
		s, err := pairwiseNormalized(instance, st, ip, b.peaks[k])
		if err != nil {
			return fmt.Errorf("score: S-trace %d: %w", k, err)
		}
		dst[k] = s
	}
	return nil
}

// pairwiseNormalized is the fused scoring kernel: the pairwise asynchrony
// score (Eq. 7) of the instance against st normalized to the instance's
// peak, with both peaks precomputed. One pass, no allocations, and float
// operations in exactly the order of NormalizeTo + Asynchrony:
// normalized[j] = st[j] * (ip/stPeak), aggregate[j] = instance[j] +
// normalized[j], peaks taken by a first-maximum scan in index order.
func pairwiseNormalized(instance, st timeseries.Series, ip, stPeak float64) (float64, error) {
	if len(instance.Values) != len(st.Values) {
		return 0, fmt.Errorf("score: aggregating trace 1: %w", timeseries.ErrLenMismatch)
	}
	if instance.Step != st.Step {
		return 0, fmt.Errorf("score: aggregating trace 1: %w", timeseries.ErrMisaligned)
	}
	factor := ip / stPeak
	np, ap := math.Inf(-1), math.Inf(-1)
	iv := instance.Values
	for j, v := range st.Values {
		nv := v * factor
		if nv > np {
			np = nv
		}
		av := iv[j] + nv
		if av > ap {
			ap = av
		}
	}
	if np <= 0 {
		// Unreachable when stPeak and ip are positive; kept so a corrupted
		// basis fails the same way the clone-based path would.
		return 0, fmt.Errorf("%w (index 1)", ErrZeroPeak)
	}
	if ap <= 0 {
		return 0, ErrZeroPeak
	}
	return (ip + np) / ap, nil
}

// VectorsParallel computes the score vector of every instance in order, all
// against the same basis: the embedding fed to k-means in the placement
// step. Scoring is O(instances × |B| × trace-length) and runs on workers
// goroutines (≤ 0 means the package default; see internal/parallel). The
// basis is validated and peak-computed once, every
// vector is written at its instance index into one flat backing array, and
// the per-instance work runs through the fused kernel — zero per-instance
// basis allocations. The result is bit-identical to a serial run of the
// original per-instance path for any worker count, including the error
// semantics: the error reported is the one the lowest-index instance would
// have hit in a serial loop.
func VectorsParallel(instances []timeseries.Series, straces []timeseries.Series, workers int) ([][]float64, error) {
	timer := obsBatchSpan.Start()
	out := make([][]float64, len(instances))
	if len(instances) == 0 {
		obsBatches.Inc()
		timer.End()
		return out, nil
	}
	var basisErr error
	if len(straces) == 0 {
		basisErr = ErrNoTraces
	}
	var basis *Basis
	var backing []float64
	k := 0
	if basisErr == nil {
		basis, basisErr = NewBasis(straces)
		if basisErr == nil {
			k = basis.Len()
			backing = make([]float64, len(instances)*k)
		}
	}
	err := parallel.ForEach(context.Background(), len(instances), workers, func(i int) error {
		// Replicate the serial per-instance check order: missing basis,
		// then instance peak, then basis validation — so the lowest-index
		// error is the same one a serial per-instance loop would return.
		score := func() error {
			if len(straces) == 0 {
				return ErrNoTraces
			}
			ip := instances[i].Peak()
			if ip <= 0 {
				return ErrZeroPeak
			}
			if basisErr != nil {
				return basisErr
			}
			dst := backing[i*k : (i+1)*k : (i+1)*k]
			if err := basis.vectorInto(dst, instances[i], ip); err != nil {
				return err
			}
			out[i] = dst
			return nil
		}
		if err := score(); err != nil {
			return fmt.Errorf("score: instance %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Counted after the parallel loop returns, so the totals are identical
	// for any worker count (the determinism contract).
	obsVectors.Add(uint64(len(instances)))
	obsBatches.Inc()
	timer.End()
	return out, nil
}
