package score

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// oldVector is the pre-Basis scoring path — normalize each S-trace to the
// instance peak, then run the clone-based Asynchrony — kept as the oracle
// the fused kernel must match bit-for-bit.
func oldVector(t *testing.T, instance timeseries.Series, straces []timeseries.Series) []float64 {
	t.Helper()
	ip := instance.Peak()
	v := make([]float64, len(straces))
	for i, st := range straces {
		s, err := Asynchrony(instance, st.NormalizeTo(ip))
		if err != nil {
			t.Fatal(err)
		}
		v[i] = s
	}
	return v
}

func TestBasisVectorMatchesOldPathBitForBit(t *testing.T) {
	traces := benchTraces(20, 317, 11)
	instances, straces := traces[:12], traces[12:]
	b, err := NewBasis(straces)
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range instances {
		want := oldVector(t, inst, straces)
		got := make([]float64, b.Len())
		if err := b.VectorInto(got, inst); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("instance %d element %d: %v vs %v", i, k, got[k], want[k])
			}
		}
		viaVector, err := Vector(inst, straces)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if viaVector[k] != want[k] {
				t.Fatalf("Vector wrapper diverged at instance %d element %d", i, k)
			}
		}
	}
}

func TestVectorsParallelMatchesOldPath(t *testing.T) {
	traces := benchTraces(24, 251, 12)
	instances, straces := traces[:16], traces[16:]
	for _, workers := range []int{1, 8} {
		got, err := VectorsParallel(instances, straces, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range instances {
			want := oldVector(t, inst, straces)
			for k := range want {
				if got[i][k] != want[k] {
					t.Fatalf("workers %d instance %d element %d: %v vs %v",
						workers, i, k, got[i][k], want[k])
				}
			}
		}
	}
}

func TestNewBasisErrors(t *testing.T) {
	if _, err := NewBasis(nil); !errors.Is(err, ErrNoTraces) {
		t.Fatalf("empty basis: %v", err)
	}
	good := benchTraces(1, 16, 13)[0]
	flat := timeseries.Zeros(time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC), 10*time.Minute, 16)
	_, err := NewBasis([]timeseries.Series{good, flat})
	if !errors.Is(err, ErrZeroPeak) || !strings.Contains(err.Error(), "S-trace 1") {
		t.Fatalf("zero-peak basis element: %v", err)
	}
}

func TestVectorIntoErrors(t *testing.T) {
	traces := benchTraces(4, 16, 14)
	b, err := NewBasis(traces[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.VectorInto(make([]float64, 1), traces[0]); err == nil ||
		!strings.Contains(err.Error(), "does not match basis size") {
		t.Fatalf("short dst: %v", err)
	}
	flat := timeseries.Zeros(traces[0].Start, traces[0].Step, 16)
	if err := b.VectorInto(make([]float64, b.Len()), flat); !errors.Is(err, ErrZeroPeak) {
		t.Fatalf("zero-peak instance: %v", err)
	}
	short := timeseries.Zeros(traces[0].Start, traces[0].Step, 8)
	short.Values[0] = 1
	err = b.VectorInto(make([]float64, b.Len()), short)
	if !errors.Is(err, timeseries.ErrLenMismatch) || !strings.Contains(err.Error(), "S-trace 0") {
		t.Fatalf("misaligned instance: %v", err)
	}
}

// TestPairwiseMatchesAsynchrony: the fused Pairwise must stay bit-identical
// to the general clone-based Asynchrony on two traces.
func TestPairwiseMatchesAsynchrony(t *testing.T) {
	traces := benchTraces(8, 199, 15)
	for i := 0; i < len(traces); i++ {
		for j := 0; j < len(traces); j++ {
			want, err := Asynchrony(traces[i], traces[j])
			if err != nil {
				t.Fatal(err)
			}
			got, err := Pairwise(traces[i], traces[j])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Pairwise(%d,%d) = %v, Asynchrony = %v", i, j, got, want)
			}
		}
	}
}

// TestBasisAllocBudget pins the fused kernel's steady-state allocation
// count: VectorInto allocates nothing.
func TestBasisAllocBudget(t *testing.T) {
	traces := benchTraces(10, 1008, 16)
	inst, straces := traces[0], traces[1:]
	b, err := NewBasis(straces)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, b.Len())
	if n := testing.AllocsPerRun(20, func() {
		if err := b.VectorInto(dst, inst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("VectorInto allocs = %v, want 0", n)
	}
}

// TestVectorsParallelAllocBudget pins the batch path: scoring n instances
// serially performs O(1) allocations total (result headers, one flat
// backing array, and fixed parallel-driver overhead) — independent of the
// basis size and trace length.
func TestVectorsParallelAllocBudget(t *testing.T) {
	traces := benchTraces(40, 512, 17)
	instances, straces := traces[:32], traces[32:]
	n := testing.AllocsPerRun(10, func() {
		if _, err := VectorsParallel(instances, straces, 1); err != nil {
			t.Fatal(err)
		}
	})
	// out + backing + basis (struct, copied straces, peaks) + driver bits.
	if n > 12 {
		t.Fatalf("VectorsParallel allocs = %v, want ≤ 12 regardless of instance count", n)
	}
}
