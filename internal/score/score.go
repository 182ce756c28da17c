// Package score implements the paper's asynchrony-score machinery (§3.4):
// the asynchrony score function over a set of power traces (Eq. 6), pairwise
// scores (Eq. 7), instance-to-service (I-to-S) score vectors that embed
// every instance into the |B|-dimensional space spanned by the top-consumer
// S-traces, and the differential asynchrony score against a power node used
// by incremental remapping (§3.6).
package score

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/timeseries"
)

// Errors returned by scoring functions.
var (
	ErrNoTraces = errors.New("score: no traces")
	ErrZeroPeak = errors.New("score: trace with non-positive peak")
)

// Asynchrony computes the asynchrony score of a set of power traces
// (Eq. 6):
//
//	A_M = Σ_{j∈M} peak(P_j) / peak(Σ_{j∈M} P_j)
//
// The score is 1.0 when every component peaks simultaneously and approaches
// |M| as peaks interleave perfectly; higher is better. All traces must have
// positive peaks (a trace that never draws power carries no signal and
// would produce a degenerate ratio). It sums the traces in argument order
// and hands the sum's peak to AsynchronyFromSum; callers that already hold
// that peak should call the kernel directly.
func Asynchrony(traces ...timeseries.Series) (float64, error) {
	if len(traces) == 0 {
		return 0, ErrNoTraces
	}
	sum, err := timeseries.Sum(traces...)
	if err != nil {
		// Sum stopped at the first trace misaligned with traces[0]. Report
		// the first fault in argument order, each trace's peak checked
		// before its alignment, as one pass over the traces meets them.
		for i, tr := range traces {
			if tr.Peak() <= 0 {
				return 0, fmt.Errorf("%w (index %d)", ErrZeroPeak, i)
			}
			if tr.Len() != traces[0].Len() || tr.Step != traces[0].Step {
				return 0, fmt.Errorf("score: aggregating trace %d: %w", i, err)
			}
		}
		return 0, err
	}
	return AsynchronyFromSum(sum.Peak(), traces...)
}

// AsynchronyFromSum is the Eq. 6 kernel over a precomputed denominator:
// peakOfSum is peak(Σ_{j∈M} P_j) over the same traces. It reads one peak
// per trace and allocates nothing. Every trace must have a positive peak —
// the first that does not is ErrZeroPeak naming its index — and then so
// must the sum. Given the peak of a sum accumulated in argument order (Sum's
// order, and a leaf's entry in powertree.Aggregates: attachment order) the
// result is bit-identical to Asynchrony over the same traces.
func AsynchronyFromSum(peakOfSum float64, traces ...timeseries.Series) (float64, error) {
	if len(traces) == 0 {
		return 0, ErrNoTraces
	}
	var sumPeaks float64
	for i, tr := range traces {
		p := tr.Peak()
		if p <= 0 {
			return 0, fmt.Errorf("%w (index %d)", ErrZeroPeak, i)
		}
		sumPeaks += p
	}
	if peakOfSum <= 0 {
		return 0, ErrZeroPeak
	}
	return sumPeaks / peakOfSum, nil
}

// Pairwise computes the asynchrony score between two traces (Eq. 7).
func Pairwise(a, b timeseries.Series) (float64, error) {
	return Asynchrony(a, b)
}

// Vector computes the I-to-S asynchrony score vector of an instance trace
// against the service S-traces (§3.4): element i is the pairwise score
// between the instance's averaged I-trace and S-trace i. Each S-trace is
// normalized to the instance's peak before scoring so the vector reflects
// *timing* dissimilarity, not magnitude: an instance should not look
// "asynchronous" with a service merely because that service's S-trace is
// orders of magnitude larger.
//
// Vector is a thin wrapper over Basis; callers scoring many instances
// against the same basis should build the Basis once (or use
// VectorsParallel, which does) so the S-traces are validated and
// peak-computed a single time.
func Vector(instance timeseries.Series, straces []timeseries.Series) ([]float64, error) {
	if len(straces) == 0 {
		return nil, ErrNoTraces
	}
	ip := instance.Peak()
	if ip <= 0 {
		return nil, ErrZeroPeak
	}
	b, err := NewBasis(straces)
	if err != nil {
		return nil, err
	}
	v := make([]float64, b.Len())
	if err := b.vectorInto(v, instance, ip); err != nil {
		return nil, err
	}
	return v, nil
}

// Differential computes the differential asynchrony score of an instance
// against a power node (§3.6):
//
//	AD_{i,N} = (peak(PI_i) + peak(PA_{i,N})) / peak(PI_i + PA_{i,N})
//
// where PA is the averaged aggregate power trace of the node's other
// instances: (Σ_{j∈S_N, j≠i} PI_j) / |S_N − 1|. peers must contain the
// traces of the node's instances excluding i. It sums the peers in argument
// order and hands the sum to DifferentialFromSum; callers that already hold
// that sum should call the kernel directly.
func Differential(instance timeseries.Series, peers []timeseries.Series) (float64, error) {
	if len(peers) == 0 {
		return 0, ErrNoTraces
	}
	sum, err := timeseries.Sum(peers...)
	if err != nil {
		return 0, fmt.Errorf("score: averaging %d peers: %w", len(peers), err)
	}
	return DifferentialFromSum(instance, sum, len(peers))
}

// DifferentialFromSum is the §3.6 kernel over a precomputed peer sum: sum is
// Σ_{j≠i} PI_j and n the number of peers in it, so PA[t] = sum[t]·(1/n). It
// makes one pass over the two traces and allocates nothing — PA is never
// materialised. Because PA[t] is formed exactly as timeseries.Mean forms it,
// the result is bit-identical to Differential over the same peers whenever
// sum was accumulated in the same order (a leaf's aggregate in
// powertree.Aggregates is: attachment order).
func DifferentialFromSum(instance, sum timeseries.Series, n int) (float64, error) {
	if n <= 0 {
		return 0, ErrNoTraces
	}
	k := 1 / float64(n)
	aligned := instance.Len() == sum.Len() && instance.Step == sum.Step && !instance.Empty()
	ip, ap, joint := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	if aligned {
		sv := sum.Values[:len(instance.Values)]
		for t, v := range instance.Values {
			// The conversion forces the rounding Mean's stored product had,
			// so no platform may fuse it into the add below.
			pa := float64(sv[t] * k)
			if v > ip {
				ip = v
			}
			if pa > ap {
				ap = pa
			}
			if s := v + pa; s > joint {
				joint = s
			}
		}
	} else {
		// Error path only: the peaks decide which error, in the order the
		// pairwise score checks them.
		ip = instance.Peak()
		ap = sum.Peak() * k
	}
	if ip <= 0 {
		return 0, fmt.Errorf("%w (instance)", ErrZeroPeak)
	}
	if ap <= 0 {
		return 0, fmt.Errorf("%w (peer average)", ErrZeroPeak)
	}
	if !aligned {
		err := timeseries.ErrLenMismatch
		if instance.Len() == sum.Len() {
			err = timeseries.ErrMisaligned
		}
		return 0, fmt.Errorf("score: instance against peer average: %w", err)
	}
	if joint <= 0 {
		return 0, ErrZeroPeak
	}
	return (ip + ap) / joint, nil
}

// DifferentialBound is an upper bound on DifferentialFromSum(c, sum, n) from
// O(1) reads, given cSlot and sumSlot, the PeakIndex of c and of sum. With
// k = 1/n, ip = c[cSlot] and ap = float64(sum[sumSlot]·k) are the kernel's
// own peaks (rounding is monotone), and the kernel divides ip + ap by joint,
// the largest c[t] + float64(sum[t]·k). c[sumSlot] + ap and
// ip + float64(sum[cSlot]·k) are two of the values that maximum compares,
// bit for bit, so dividing by the larger of them bounds the result from
// above. The bound is +Inf wherever it is undefined (n ≤ 0, misaligned or
// empty series, a slot out of range, a non-positive peak or denominator,
// NaN), so a caller that prunes on it never skips a value the kernel would
// return. The series are passed by pointer: callers bound every candidate
// of an admission and every tried remap pair, and copying two Series per
// call cost as much as the bound itself.
func DifferentialBound(c *timeseries.Series, cSlot int, sum *timeseries.Series, sumSlot int, n int) float64 {
	if n <= 0 || c.Len() != sum.Len() || c.Step != sum.Step ||
		uint(cSlot) >= uint(c.Len()) || uint(sumSlot) >= uint(sum.Len()) {
		return math.Inf(1)
	}
	k := 1 / float64(n)
	ip, ap := c.Values[cSlot], float64(sum.Values[sumSlot]*k)
	floor := max(c.Values[sumSlot]+ap, ip+float64(sum.Values[cSlot]*k)) // ≤ joint
	b := (ip + ap) / floor
	if !(ip > 0 && ap > 0 && floor > 0) || math.IsNaN(b) {
		return math.Inf(1)
	}
	return b
}

// DifferentialBelow decides whether DifferentialFromSum(c, sum, n) is
// strictly below incumbent, reading as few slots as it can; cSlot and
// sumSlot are the PeakIndex of c and of sum, as for DifferentialBound. It
// returns a slot whose reading proves the score below incumbent, or −1
// when the score is not below it. It answers only where DifferentialBound
// is finite and incumbent is finite and > 0; elsewhere it returns −1. There
// the kernel cannot fail and returns num/joint, num = ip + ap being its
// peaks' sum and joint its largest c[t] + float64(sum[t]·(1/n)). T is
// num/incumbent, nudged up until num/T < incumbent: a reading x ≥ T gives
// joint ≥ x ≥ T, so num/joint ≤ num/T < incumbent, because division rounds
// monotonically. Conversely, when every reading is below T (a NaN reading
// never compares ≥ T and never enters joint), joint is at most the float
// before T, whose quotient is ≥ incumbent, so −1 is exact too. The bound's
// two slots are read first, then the hint slots (out of range ones are
// skipped), then the rest in order.
func DifferentialBelow(c *timeseries.Series, cSlot int, sum *timeseries.Series, sumSlot int, n int, incumbent float64, hint []int) int {
	if !(incumbent > 0) || math.IsInf(incumbent, 1) || math.IsInf(DifferentialBound(c, cSlot, sum, sumSlot, n), 1) {
		return -1
	}
	k := 1 / float64(n)
	cv, sv := c.Values, sum.Values[:len(c.Values)]
	num := cv[cSlot] + float64(sv[sumSlot]*k)
	thr := num / incumbent // within a rounding of num/incumbent: a few nudges at most
	for !(num/thr < incumbent) {
		thr = math.Nextafter(thr, math.Inf(1))
	}
	for _, t := range [2]int{sumSlot, cSlot} {
		if cv[t]+float64(sv[t]*k) >= thr {
			return t
		}
	}
	for _, t := range hint {
		if uint(t) < uint(len(cv)) && cv[t]+float64(sv[t]*k) >= thr {
			return t
		}
	}
	for t, v := range cv {
		if v+float64(sv[t]*k) >= thr {
			return t
		}
	}
	return -1
}

// ServiceTraces builds the S-trace (Eq. 5) for each named service: the mean
// of the averaged I-traces of the service's instances. instancesByService
// maps service name → that service's averaged I-traces. Services are
// emitted in the order given by services.
func ServiceTraces(services []string, instancesByService map[string][]timeseries.Series) ([]timeseries.Series, error) {
	out := make([]timeseries.Series, 0, len(services))
	for _, svc := range services {
		traces := instancesByService[svc]
		if len(traces) == 0 {
			return nil, fmt.Errorf("score: service %q has no instance traces", svc)
		}
		st, err := timeseries.Mean(traces...)
		if err != nil {
			return nil, fmt.Errorf("score: service %q: %w", svc, err)
		}
		out = append(out, st)
	}
	return out, nil
}
