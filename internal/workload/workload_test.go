package workload

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var monday = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func TestBumpEval(t *testing.T) {
	b := Bump{PeakHour: 12, SigmaHours: 3, Height: 0.5}
	if got := b.eval(12); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("peak eval = %v", got)
	}
	if b.eval(12) <= b.eval(15) {
		t.Fatal("bump must decay away from peak")
	}
	// Wrapping: hour 23 is 13h from 12 linearly but 11h circularly; hour 1
	// must be closer to a 23h peak than hour 12 is.
	night := Bump{PeakHour: 23, SigmaHours: 2, Height: 1}
	if night.eval(1) <= night.eval(12) {
		t.Fatal("bump must wrap around midnight")
	}
	if (Bump{PeakHour: 12, SigmaHours: 0, Height: 1}).eval(12) != 0 {
		t.Fatal("zero sigma must contribute 0")
	}
}

func TestShapeActivityBounds(t *testing.T) {
	s := Shape{Base: 0.9, Bumps: []Bump{{PeakHour: 12, SigmaHours: 4, Height: 0.9}}}
	for h := 0; h < 24; h++ {
		a := s.Activity(monday.Add(time.Duration(h) * time.Hour))
		if a < 0 || a > 1 {
			t.Fatalf("activity out of [0,1]: %v at hour %d", a, h)
		}
	}
}

func TestShapeWeekdayWeights(t *testing.T) {
	s := Shape{Base: 0.1, Bumps: []Bump{{PeakHour: 12, SigmaHours: 4, Height: 0.5}}, WeekdayWeights: weekdayBusiness(0.5)}
	mondayNoon := monday.Add(12 * time.Hour)
	saturdayNoon := monday.Add(5*24*time.Hour + 12*time.Hour)
	if s.Activity(saturdayNoon) >= s.Activity(mondayNoon) {
		t.Fatal("weekend must be quieter than weekday")
	}
}

// nominalPower is a profile's per-server draw at t before per-instance
// heterogeneity: idle power plus the shape's activity share of the span.
func nominalPower(p Profile, t time.Time) float64 {
	return p.IdlePower + (p.PeakPower-p.IdlePower)*p.Shape.Activity(t)
}

func TestStandardProfilesShapes(t *testing.T) {
	profiles := StandardProfiles()
	web, db, hadoop := profiles["frontend"], profiles["dbA"], profiles["hadoop"]

	// Fig. 6: web peaks in the afternoon, db at night, hadoop is flat-high.
	webDay := nominalPower(web, monday.Add(15*time.Hour))
	webNight := nominalPower(web, monday.Add(3*time.Hour))
	if webDay <= webNight {
		t.Fatalf("web day %v must exceed night %v", webDay, webNight)
	}
	dbNight := nominalPower(db, monday.Add(2*time.Hour))
	dbDay := nominalPower(db, monday.Add(14*time.Hour))
	if dbNight <= dbDay {
		t.Fatalf("db night %v must exceed day %v", dbNight, dbDay)
	}
	var hMin, hMax = math.Inf(1), math.Inf(-1)
	for h := 0; h < 24; h++ {
		p := nominalPower(hadoop, monday.Add(time.Duration(h)*time.Hour))
		hMin, hMax = math.Min(hMin, p), math.Max(hMax, p)
	}
	if (hMax-hMin)/hMax > 0.25 {
		t.Fatalf("hadoop swing too large: %v..%v", hMin, hMax)
	}
	if hMin < 0.75*hadoop.PeakPower {
		t.Fatalf("hadoop should stay high, min %v of peak %v", hMin, hadoop.PeakPower)
	}
}

func smallSpec() GenSpec {
	return GenSpec{
		Mix:   map[string]int{"frontend": 4, "dbA": 3, "hadoop": 3},
		Start: monday, Step: 30 * time.Minute, Weeks: 3,
		PhaseJitterHours: 1, AmplitudeSigma: 0.2, NoiseSigma: 0.01, Seed: 7,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Instances) != 10 {
		t.Fatalf("instances = %d", len(a.Instances))
	}
	for i := range a.Instances {
		if a.Instances[i].ID != b.Instances[i].ID {
			t.Fatal("instance order must be deterministic")
		}
		for j := range a.Instances[i].Trace.Values {
			if a.Instances[i].Trace.Values[j] != b.Instances[i].Trace.Values[j] {
				t.Fatal("traces must be deterministic")
			}
		}
	}
}

func TestGenerateTraceProperties(t *testing.T) {
	fleet, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 3 * 7 * 24 * 2 // 3 weeks at 30-minute step
	for _, inst := range fleet.Instances {
		if inst.Trace.Len() != wantLen {
			t.Fatalf("%s trace len = %d, want %d", inst.ID, inst.Trace.Len(), wantLen)
		}
		if err := inst.Trace.Validate(); err != nil {
			t.Fatalf("%s: %v", inst.ID, err)
		}
		if inst.Trace.Min() < 0 {
			t.Fatalf("%s: negative power", inst.ID)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := smallSpec()
	bad.Mix = map[string]int{"unknown-svc": 1}
	if _, err := Generate(bad, StandardProfiles()); err == nil {
		t.Fatal("unknown service must error")
	}
	bad2 := smallSpec()
	bad2.Weeks = 0
	if _, err := Generate(bad2, StandardProfiles()); err == nil {
		t.Fatal("zero weeks must error")
	}
	bad3 := smallSpec()
	bad3.Step = 0
	if _, err := Generate(bad3, StandardProfiles()); err == nil {
		t.Fatal("zero step must error")
	}
	bad4 := smallSpec()
	bad4.Mix = map[string]int{"frontend": -1}
	if _, err := Generate(bad4, StandardProfiles()); err == nil {
		t.Fatal("negative count must error")
	}
	bad5 := smallSpec()
	bad5.Mix = nil
	if _, err := Generate(bad5, StandardProfiles()); err == nil {
		t.Fatal("empty mix must error")
	}
}

func TestFleetLookups(t *testing.T) {
	fleet, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	inst, ok := fleet.Instance("frontend-0000")
	if !ok || inst.Service != "frontend" || inst.Class != LatencyCritical {
		t.Fatalf("Instance lookup: %+v %v", inst, ok)
	}
	if _, ok := fleet.Instance("nope"); ok {
		t.Fatal("missing instance must not resolve")
	}
	if got := len(fleet.ServiceInstances("dbA")); got != 3 {
		t.Fatalf("ServiceInstances(dbA) = %d", got)
	}
	services := fleet.Services()
	if len(services) != 3 || services[0] != "dbA" {
		t.Fatalf("Services = %v", services)
	}
	if got := len(fleet.IDs()); got != 10 {
		t.Fatalf("IDs = %d", got)
	}
	pf := fleet.PowerFn()
	if _, ok := pf("frontend-0000"); !ok {
		t.Fatal("PowerFn must resolve instances")
	}
	if _, ok := pf("nope"); ok {
		t.Fatal("PowerFn must reject unknown IDs")
	}
}

// TestPowerBreakdownStable pins the per-service grouping regression the
// maprange analyzer guards: the breakdown reduces a by-service map and its
// serialized form must be identical on every evaluation.
func TestPowerBreakdownStable(t *testing.T) {
	fleet, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	first := fmt.Sprintf("%+v", fleet.PowerBreakdown())
	for i := 0; i < 100; i++ {
		if got := fmt.Sprintf("%+v", fleet.PowerBreakdown()); got != first {
			t.Fatalf("run %d: PowerBreakdown changed:\n--- first\n%s\n--- now\n%s", i, first, got)
		}
	}
}

func TestPowerBreakdownAndTopServices(t *testing.T) {
	fleet, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	bd := fleet.PowerBreakdown()
	if len(bd) != 3 {
		t.Fatalf("breakdown services = %d", len(bd))
	}
	var shareSum float64
	for _, sp := range bd {
		shareSum += sp.Share
		if sp.MeanPower <= 0 || sp.Instances <= 0 {
			t.Fatalf("bad breakdown row: %+v", sp)
		}
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", shareSum)
	}
	for i := 1; i < len(bd); i++ {
		if bd[i].MeanPower > bd[i-1].MeanPower {
			t.Fatal("breakdown must be sorted descending")
		}
	}
	top := fleet.TopServices(2)
	if len(top) != 2 || top[0] != bd[0].Service {
		t.Fatalf("TopServices = %v", top)
	}
	if got := fleet.TopServices(99); len(got) != 3 {
		t.Fatalf("TopServices clamps to available: %v", got)
	}
}

func TestSplitWeeksAndAveragedITraces(t *testing.T) {
	fleet, err := Generate(smallSpec(), StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	weekLen := 7 * 24 * 2
	for w := 0; w < 3; w++ {
		m, err := fleet.SplitWeeks(w)
		if err != nil {
			t.Fatal(err)
		}
		for id, s := range m {
			if s.Len() != weekLen {
				t.Fatalf("week %d of %s: len %d", w, id, s.Len())
			}
		}
	}
	if _, err := fleet.SplitWeeks(3); err == nil {
		t.Fatal("week out of range must error")
	}
	avg, err := fleet.AveragedITraces(2)
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range avg {
		if s.Len() != weekLen {
			t.Fatalf("averaged %s: len %d", id, s.Len())
		}
	}
	// The averaged trace equals the element-wise mean of weeks 0 and 1.
	id := fleet.Instances[0].ID
	w0, _ := fleet.SplitWeeks(0)
	w1, _ := fleet.SplitWeeks(1)
	want, _ := timeseries.Mean(w0[id], w1[id])
	for i := range want.Values {
		if math.Abs(avg[id].Values[i]-want.Values[i]) > 1e-9 {
			t.Fatalf("averaged I-trace mismatch at %d", i)
		}
	}
	if _, err := fleet.AveragedITraces(5); err == nil {
		t.Fatal("too many training weeks must error")
	}
}

func TestPhaseJitterShiftsPeaks(t *testing.T) {
	prof := StandardProfiles()["frontend"]
	n := 7 * 24 * 4 // one week at 15-minute step
	base := RenderTrace(prof, InstanceParams{AmplitudeScale: 1, BaseScale: 1}, monday, 15*time.Minute, n)
	shifted := RenderTrace(prof, InstanceParams{PhaseShiftHours: 3, AmplitudeScale: 1, BaseScale: 1}, monday, 15*time.Minute, n)
	// Compare the first day's peak position.
	day := 24 * 4
	basePeak := base.Slice(0, day).PeakIndex()
	shiftPeak := shifted.Slice(0, day).PeakIndex()
	gotShift := float64(shiftPeak-basePeak) * 15 / 60
	if math.Abs(gotShift-3) > 1 {
		t.Fatalf("phase shift = %vh, want ≈3h", gotShift)
	}
}

func TestAmplitudeScale(t *testing.T) {
	prof := StandardProfiles()["frontend"]
	n := 24 * 4
	small := RenderTrace(prof, InstanceParams{AmplitudeScale: 0.5, BaseScale: 1}, monday, 15*time.Minute, n)
	large := RenderTrace(prof, InstanceParams{AmplitudeScale: 2, BaseScale: 1}, monday, 15*time.Minute, n)
	if large.Peak()-large.Min() <= small.Peak()-small.Min() {
		t.Fatal("amplitude scale must widen dynamic range")
	}
}

func TestLoadTraceBounds(t *testing.T) {
	prof := StandardProfiles()["frontend"]
	lt := LoadTrace(prof, monday, 10*time.Minute, 7*24*6, 9)
	if lt.Min() < 0 || lt.Peak() > 1 {
		t.Fatalf("load out of [0,1]: %v..%v", lt.Min(), lt.Peak())
	}
	// Diurnal: afternoon load above night load on average.
	var day, night float64
	for i := 0; i < lt.Len(); i++ {
		h := lt.TimeAt(i).Hour()
		if h >= 13 && h < 18 {
			day += lt.Values[i]
		}
		if h >= 2 && h < 7 {
			night += lt.Values[i]
		}
	}
	if day <= night {
		t.Fatal("LC load must be diurnal")
	}
}

func TestStandardDCConfigs(t *testing.T) {
	for _, name := range AllDCs {
		cfg, err := StandardDCConfig(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.TotalInstances() > cfg.Capacity() {
			t.Fatalf("%s does not fit its topology", name)
		}
	}
	if _, err := StandardDCConfig("DC9", 1); err == nil {
		t.Fatal("unknown DC must error")
	}
	if _, err := StandardDCConfig(DC1, 0); err == nil {
		t.Fatal("zero scale must error")
	}
}

func TestStandardDCHeterogeneityOrdering(t *testing.T) {
	c1, _ := StandardDCConfig(DC1, 1)
	c2, _ := StandardDCConfig(DC2, 1)
	c3, _ := StandardDCConfig(DC3, 1)
	if !(c1.Gen.PhaseJitterHours < c2.Gen.PhaseJitterHours && c2.Gen.PhaseJitterHours < c3.Gen.PhaseJitterHours) {
		t.Fatal("heterogeneity must order DC1 < DC2 < DC3 (§5.2.1)")
	}
}

func TestBuildDC(t *testing.T) {
	cfg, err := StandardDCConfig(DC1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, tree, err := BuildDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Instances) != cfg.TotalInstances() {
		t.Fatalf("fleet size %d vs %d", len(fleet.Instances), cfg.TotalInstances())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.InstanceCount() != 0 {
		t.Fatal("BuildDC must return an unpopulated tree")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{LatencyCritical: "LC", Batch: "Batch", Backend: "Backend", Storage: "Storage", Dev: "Dev"} {
		if c.String() != want {
			t.Fatalf("Class %d String = %q", c, c.String())
		}
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class must still print")
	}
}
