package score

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func mk(vals ...float64) timeseries.Series { return timeseries.New(t0, time.Minute, vals) }

func TestAsynchronyPerfectSync(t *testing.T) {
	// Identical traces: score exactly 1 (paper's "poor placement" case).
	a := mk(1, 5, 2)
	got, err := Asynchrony(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("sync score = %v, want 1", got)
	}
}

func TestAsynchronyPerfectAntiPhase(t *testing.T) {
	// Perfectly out-of-phase equal peaks: score = |M| = 2 (paper's optimal).
	a, b := mk(10, 0), mk(0, 10)
	got, err := Asynchrony(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("anti-phase score = %v, want 2", got)
	}
}

func TestAsynchronyFigure3Swap(t *testing.T) {
	// Fig. 3's worked example: two sync pairs score 1.0 per leaf; swapping
	// one of each gives ~2.0 per leaf.
	sync1, sync2 := mk(10, 1), mk(10, 1)
	async1, async2 := mk(1, 10), mk(1, 10)
	bad1, _ := Asynchrony(sync1, sync2)
	bad2, _ := Asynchrony(async1, async2)
	good1, _ := Asynchrony(sync1, async1)
	good2, _ := Asynchrony(sync2, async2)
	if bad1 != 1 || bad2 != 1 {
		t.Fatalf("bad grouping scores: %v %v", bad1, bad2)
	}
	if good1 < 1.8 || good2 < 1.8 {
		t.Fatalf("good grouping scores: %v %v", good1, good2)
	}
}

func TestAsynchronyErrors(t *testing.T) {
	if _, err := Asynchrony(); err != ErrNoTraces {
		t.Fatalf("no traces: %v", err)
	}
	if _, err := Asynchrony(mk(0, 0)); err == nil {
		t.Fatal("zero-peak trace must error")
	}
	short := mk(1)
	if _, err := Asynchrony(mk(1, 2), short); err == nil {
		t.Fatal("mismatched lengths must error")
	}
}

// Property: 1 ≤ A_M ≤ |M| for any set of non-negative traces with positive
// peaks — the bounds stated in §3.4.
func TestAsynchronyBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		m := rng.Intn(5) + 1
		n := rng.Intn(20) + 2
		traces := make([]timeseries.Series, m)
		for i := range traces {
			s := timeseries.Zeros(t0, time.Minute, n)
			for j := range s.Values {
				s.Values[j] = rng.Float64() * 100
			}
			s.Values[rng.Intn(n)] = 100 // guarantee positive peak
			traces[i] = s
		}
		a, err := Asynchrony(traces...)
		if err != nil {
			return false
		}
		return a >= 1-1e-9 && a <= float64(m)+1e-9
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatal("asynchrony bounds violated")
		}
	}
}

// Property: the score is scale-invariant — scaling every trace by the same
// positive constant leaves the score unchanged.
func TestAsynchronyScaleInvarianceProperty(t *testing.T) {
	f := func(raw [4]float64, raw2 [4]float64, kRaw float64) bool {
		k := math.Abs(math.Mod(kRaw, 100)) + 0.1
		a, b := timeseries.Zeros(t0, time.Minute, 4), timeseries.Zeros(t0, time.Minute, 4)
		for i := 0; i < 4; i++ {
			a.Values[i] = math.Abs(math.Mod(raw[i], 50)) + 0.1
			b.Values[i] = math.Abs(math.Mod(raw2[i], 50)) + 0.1
		}
		s1, err1 := Asynchrony(a, b)
		s2, err2 := Asynchrony(a.Scale(k), b.Scale(k))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVector(t *testing.T) {
	inst := mk(10, 0, 5)
	s1 := mk(100, 0, 50) // same shape, much larger: should score ~1 after normalization
	s2 := mk(0, 80, 0)   // anti-phase
	v, err := Vector(inst, []timeseries.Series{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatalf("vector len %d", len(v))
	}
	if math.Abs(v[0]-1) > 1e-9 {
		t.Fatalf("synchronous S-trace score = %v, want 1 (normalization)", v[0])
	}
	if v[1] < 1.9 {
		t.Fatalf("anti-phase S-trace score = %v, want ≈2", v[1])
	}
}

func TestVectorErrors(t *testing.T) {
	if _, err := Vector(mk(1), nil); err != ErrNoTraces {
		t.Fatalf("no S-traces: %v", err)
	}
	if _, err := Vector(mk(0, 0), []timeseries.Series{mk(1, 1)}); err == nil {
		t.Fatal("zero-peak instance must error")
	}
}

func TestVectorRejectsZeroPeakSTrace(t *testing.T) {
	// A zero-peak S-trace used to slip through NormalizeTo unchanged and
	// surface later as a bare ErrZeroPeak from Pairwise; now it is rejected
	// up front with an error naming the offending basis index.
	inst := mk(10, 0, 5)
	basis := []timeseries.Series{mk(1, 2, 3), mk(0, 0, 0), mk(4, 5, 6)}
	_, err := Vector(inst, basis)
	if !errors.Is(err, ErrZeroPeak) {
		t.Fatalf("err = %v, want ErrZeroPeak", err)
	}
	if !strings.Contains(err.Error(), "S-trace 1") {
		t.Fatalf("error must name the offending S-trace index: %v", err)
	}
	// The same failure through VectorsParallel additionally names the instance.
	_, err = VectorsParallel([]timeseries.Series{inst}, basis, 0)
	if !errors.Is(err, ErrZeroPeak) || !strings.Contains(err.Error(), "instance 0") {
		t.Fatalf("VectorsParallel err = %v, want wrapped ErrZeroPeak naming instance 0", err)
	}
}

func TestVectorsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	insts := make([]timeseries.Series, 37)
	for i := range insts {
		s := timeseries.Zeros(t0, time.Minute, 48)
		for j := range s.Values {
			s.Values[j] = rng.Float64()*100 + 1
		}
		insts[i] = s
	}
	basis := insts[:5]
	want, err := VectorsParallel(insts, basis, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got, err := VectorsParallel(insts, basis, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel vectors differ from serial", workers)
		}
	}
}

func TestVectorsParallelLowestIndexError(t *testing.T) {
	// Instances 3 and 9 both have zero peaks; every worker count must report
	// instance 3, exactly like the serial loop.
	insts := make([]timeseries.Series, 12)
	for i := range insts {
		insts[i] = mk(1, 2)
	}
	insts[3], insts[9] = mk(0, 0), mk(0, 0)
	basis := []timeseries.Series{mk(1, 0)}
	for _, workers := range []int{1, 4, 8} {
		_, err := VectorsParallel(insts, basis, workers)
		if err == nil || !strings.Contains(err.Error(), "instance 3") {
			t.Fatalf("workers=%d: err = %v, want error naming instance 3", workers, err)
		}
	}
}

func TestVectors(t *testing.T) {
	insts := []timeseries.Series{mk(1, 0), mk(0, 1)}
	basis := []timeseries.Series{mk(1, 0), mk(0, 1)}
	vs, err := VectorsParallel(insts, basis, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || len(vs[0]) != 2 {
		t.Fatalf("vectors shape: %v", vs)
	}
	// Instance 0 is sync with basis 0 (score 1) and anti with basis 1 (2).
	if math.Abs(vs[0][0]-1) > 1e-9 || math.Abs(vs[0][1]-2) > 1e-9 {
		t.Fatalf("vs[0] = %v", vs[0])
	}
	bad := []timeseries.Series{mk(1, 0), mk(0, 0)}
	if _, err := VectorsParallel(bad, basis, 0); err == nil {
		t.Fatal("bad instance must error")
	}
}

func TestDifferential(t *testing.T) {
	inst := mk(10, 0)
	peersSync := []timeseries.Series{mk(8, 0), mk(6, 0)}
	peersAnti := []timeseries.Series{mk(0, 8), mk(0, 6)}
	syncScore, err := Differential(inst, peersSync)
	if err != nil {
		t.Fatal(err)
	}
	antiScore, err := Differential(inst, peersAnti)
	if err != nil {
		t.Fatal(err)
	}
	if syncScore >= antiScore {
		t.Fatalf("differential: sync %v should be worse (lower) than anti %v", syncScore, antiScore)
	}
	if math.Abs(syncScore-1) > 1e-9 {
		t.Fatalf("sync differential = %v, want 1", syncScore)
	}
	if _, err := Differential(inst, nil); err != ErrNoTraces {
		t.Fatalf("no peers: %v", err)
	}
}

func TestServiceTraces(t *testing.T) {
	byService := map[string][]timeseries.Series{
		"web": {mk(2, 0), mk(4, 0)},
		"db":  {mk(0, 6)},
	}
	sts, err := ServiceTraces([]string{"web", "db"}, byService)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("S-traces: %d", len(sts))
	}
	if sts[0].Values[0] != 3 || sts[0].Values[1] != 0 {
		t.Fatalf("web S-trace = %v", sts[0].Values)
	}
	if _, err := ServiceTraces([]string{"missing"}, byService); err == nil {
		t.Fatal("missing service must error")
	}
}
