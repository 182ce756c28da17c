// Package harness is the measurement arithmetic of the benchmark: sample
// statistics, the in-memory span recorder, the BENCHMARK.json contract, the
// result-file schema and the old-vs-new comparison. It knows nothing about
// SmoothOperator; the workloads live in bench/loads.
package harness

import (
	"math"
	"sort"
)

// Segments is how many consecutive pieces a phase's samples are cut into.
// A latency metric is the median over pieces of each piece's percentile, so
// one noisy-neighbour burst costs one piece instead of shifting the whole
// run.
const Segments = 5

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of samples;
// 0 for an empty set.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty set.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sorted(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cut returns the half-open index ranges of n items split into at most
// parts consecutive pieces whose sizes differ by at most one. Fewer items
// than parts yields one piece per item.
func cut(n, parts int) [][2]int {
	if n == 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, parts)
	for i := range out {
		out[i] = [2]int{i * n / parts, (i + 1) * n / parts}
	}
	return out
}

// SegmentPercentile cuts samples, in arrival order, into Segments
// consecutive pieces and returns the median of the pieces' p-th percentiles.
func SegmentPercentile(samples []float64, p float64) float64 {
	var per []float64
	for _, r := range cut(len(samples), Segments) {
		per = append(per, Percentile(samples[r[0]:r[1]], p))
	}
	return Median(per)
}

// Quartiles returns the first, second and third quartile of values exactly
// as Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so the spread this package reports is the one the benchmark's driver
// computes. It needs at least two values.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// Spread is the distance between the first and third quartile as a share of
// the median — the steadiness figure a metric's bound is judged against.
func Spread(values []float64) float64 {
	q1, _, q3 := Quartiles(values)
	med := Median(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
