package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "ignored"); again != c {
		t.Fatal("Counter is not idempotent per name")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

// histCount is the histogram's total observation count: the sum of its
// buckets, as the Prometheus writer renders _count.
func histCount(h *Histogram) uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := histCount(h); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	// Bucket occupancy: ≤1 holds {0.5, 1}, ≤2 holds {1.5}, ≤4 holds {3},
	// overflow holds {100}.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestSpanFakeClock(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := NewWithClock(clock)
	sp := r.Span("stage_seconds", "a stage")
	timer := sp.Start()
	now = now.Add(250 * time.Millisecond)
	if d := timer.End(); d != 250*time.Millisecond {
		t.Fatalf("End = %v, want 250ms", d)
	}
	if got := histCount(sp.hist); got != 1 {
		t.Fatalf("observations = %d, want 1", got)
	}
	if got := sp.hist.Sum(); got != 0.25 {
		t.Fatalf("sum = %v, want 0.25", got)
	}
	var zero Timer
	if d := zero.End(); d != 0 {
		t.Fatalf("zero Timer End = %v, want 0", d)
	}
}

func TestWritePromStableSorted(t *testing.T) {
	build := func() *Registry {
		r := NewWithClock(func() time.Time { return time.Unix(0, 0) })
		r.Counter("zz_total", "last by name").Add(3)
		r.Gauge("aa_ratio", "first by name").Set(0.5)
		r.Histogram("mm_seconds", "middle", []float64{0.1, 1}).Observe(0.05)
		return r
	}
	var a, b strings.Builder
	if err := build().WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two identical registries rendered differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	text := a.String()
	ia := strings.Index(text, "aa_ratio")
	im := strings.Index(text, "mm_seconds")
	iz := strings.Index(text, "zz_total")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("metrics not sorted by name:\n%s", text)
	}
	for _, want := range []string{
		"# TYPE aa_ratio gauge",
		"# TYPE mm_seconds histogram",
		"# TYPE zz_total counter",
		"zz_total 3",
		"aa_ratio 0.5",
		`mm_seconds_bucket{le="0.1"} 1`,
		`mm_seconds_bucket{le="+Inf"} 1`,
		"mm_seconds_sum 0.05",
		"mm_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", []float64{1})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := histCount(h); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestUpdateAllocBudget pins the hot-path cost of instrumentation: counter
// increments and span start/end must not allocate, or they would break the
// allocation budgets of the kernels they instrument (see score's
// TestVectorsParallelAllocBudget).
func TestUpdateAllocBudget(t *testing.T) {
	r := NewWithClock(func() time.Time { return time.Unix(0, 0) })
	c := r.Counter("alloc_total", "")
	h := r.Histogram("alloc_hist", "", []float64{1})
	sp := r.Span("alloc_seconds", "")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		h.Observe(0.5)
		sp.Start().End()
	}); n != 0 {
		t.Fatalf("metric update allocs = %v, want 0", n)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dual", "")
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"smoothop_score_vectors_total": true,
		"a:b_c9":                       true,
		"_leading":                     true,
		"":                             false,
		"9starts_with_digit":           false,
		"has-dash":                     false,
		"has space":                    false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}
