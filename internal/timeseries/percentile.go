// Percentile machinery: the sort-buffer-reusing PercentileCalc and the
// package-private scratch pools behind CrossSectionBands and FoldWeeks.
//
// The statistical-profiling baseline (§5.2.1) computes one percentile per
// instance and one per aggregate node trace, over every (u, δ) config and
// every level of every tree — tens of thousands of Percentile calls per
// experiment. Sorting into a buffer owned by the calculator instead of a
// fresh allocation per call makes the whole sweep allocation-light without
// changing a single output bit: the sorted copy of a given input is unique,
// so buffer reuse cannot affect results.
package timeseries

import (
	"math"
	"sort"
	"sync"
)

// PercentileCalc computes percentiles of series while reusing one internal
// sort buffer across calls. The zero value is ready to use. A PercentileCalc
// must not be shared between goroutines; parallel stages hold one per worker
// (or one per task) instead.
type PercentileCalc struct {
	buf []float64
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the readings with
// linear interpolation between closest ranks, without a per-call sort
// allocation once the buffer has grown to the largest series seen. It is the
// c_{i,u} primitive of the statistical-profiling baseline (§5.2.1).
func (c *PercentileCalc) Percentile(s Series, p float64) float64 {
	if s.Empty() {
		return math.NaN()
	}
	c.load(s)
	return percentileOfSorted(c.buf, p)
}

// load copies the series values into the calculator's buffer and sorts them.
func (c *PercentileCalc) load(s Series) {
	if cap(c.buf) < len(s.Values) {
		c.buf = make([]float64, len(s.Values))
	}
	c.buf = c.buf[:len(s.Values)]
	copy(c.buf, s.Values)
	sort.Float64s(c.buf)
}

// Scratch pool for the cross-cutting statistics kernels. Pooled buffers are
// pure scratch: every cell is written before it is read (callers zero
// accumulators explicitly), so reuse never leaks state between calls and
// results stay bit-identical.
var scratchF64Pool = sync.Pool{New: func() any { return new([]float64) }}

func getScratchF64(n int) *[]float64 {
	p := scratchF64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratchF64(p *[]float64) { scratchF64Pool.Put(p) }
