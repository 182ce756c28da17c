package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/workload"
)

// fastOpt keeps experiment tests quick on one core.
func fastOpt() Options {
	return Options{Scale: 1, Step: time.Hour, Seed: 1, TopServices: 6}
}

func TestFig5(t *testing.T) {
	rows, err := Fig5(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[workload.DCName]float64)
	for _, r := range rows {
		seen[r.DC] += r.SharePct
		if r.SharePct <= 0 {
			t.Fatalf("non-positive share: %+v", r)
		}
	}
	for _, dc := range workload.AllDCs {
		if math.Abs(seen[dc]-100) > 1e-6 {
			t.Fatalf("%s shares sum to %v", dc, seen[dc])
		}
	}
	out := FormatFig5(rows)
	for _, want := range []string{"DC1", "DC2", "DC3", "hadoop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatFig5 missing %q", want)
		}
	}
}

func TestFig6(t *testing.T) {
	series, err := Fig6(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("services = %d", len(series))
	}
	for _, s := range series {
		if len(s.Bands) != 5 {
			t.Fatalf("%s bands = %d", s.Service, len(s.Bands))
		}
		outer, inner := s.Bands[0], s.Bands[4]
		for i := range outer.Lo {
			if outer.Lo[i] > inner.Lo[i]+1e-9 || outer.Hi[i] < inner.Hi[i]-1e-9 {
				t.Fatalf("%s: outer band must contain inner at %d", s.Service, i)
			}
			if outer.Hi[i] > 1+1e-9 {
				t.Fatalf("%s: normalized band exceeds 1 at %d", s.Service, i)
			}
		}
	}
	// Shape checks: frontend day > night; dbA night > day (p50-ish mid).
	mid := func(s Fig6Series, hour int) float64 {
		i := hour * int(time.Hour/s.Step)
		return (s.Bands[4].Lo[i] + s.Bands[4].Hi[i]) / 2
	}
	if mid(series[0], 15) <= mid(series[0], 3) {
		t.Fatal("frontend must peak by day")
	}
	if mid(series[1], 2) <= mid(series[1], 14) {
		t.Fatal("dbA must peak at night")
	}
	if got := FormatFig6(series); !strings.Contains(got, "frontend") {
		t.Fatal("FormatFig6 missing service")
	}
}

func TestFig8(t *testing.T) {
	points, err := Fig8(fastOpt(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	clusters := make(map[int]int)
	for _, p := range points {
		clusters[p.Cluster]++
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("NaN embedding for %s", p.ID)
		}
	}
	if len(clusters) < 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if got := FormatFig8(points); !strings.Contains(got, "cluster 0") {
		t.Fatal("FormatFig8 missing clusters")
	}
}

// fullRuns is shared by the Fig 9–14 tests (expensive: one pipeline per DC).
var fullRunsCache []*DCRun

func fullRuns(t *testing.T) []*DCRun {
	t.Helper()
	if fullRunsCache == nil {
		runs, err := RunSome(workload.AllDCs, fastOpt())
		if err != nil {
			t.Fatal(err)
		}
		fullRunsCache = runs
	}
	return fullRunsCache
}

func TestFig9(t *testing.T) {
	runs := fullRuns(t)
	r, err := Fig9(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Before) == 0 || len(r.After) == 0 {
		t.Fatal("missing children traces")
	}
	if r.AfterPeakSum <= 0 || r.BeforePeakSum <= 0 {
		t.Fatalf("peak sums: %v %v", r.BeforePeakSum, r.AfterPeakSum)
	}
	if got := FormatFig9(r); !strings.Contains(got, "child") {
		t.Fatal("FormatFig9 output")
	}
}

func TestFig10Shape(t *testing.T) {
	runs := fullRuns(t)
	rows, err := Fig10(runs)
	if err != nil {
		t.Fatal(err)
	}
	// 3 DCs × 4 levels (SUITE..RPP).
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	rpp := make(map[workload.DCName]float64)
	for _, r := range rows {
		if r.Level == powertree.RPP {
			rpp[r.DC] = r.ReductionPct
		}
	}
	// Paper shape: DC1 < DC2 < DC3 at RPP, all positive.
	if !(rpp[workload.DC1] < rpp[workload.DC2] && rpp[workload.DC2] < rpp[workload.DC3]) {
		t.Fatalf("RPP ordering violated: %v", rpp)
	}
	if rpp[workload.DC1] <= 0 {
		t.Fatalf("DC1 RPP reduction not positive: %v", rpp)
	}
	// Reductions grow toward the leaves within each DC.
	perDC := make(map[workload.DCName]map[powertree.Level]float64)
	for _, r := range rows {
		if perDC[r.DC] == nil {
			perDC[r.DC] = map[powertree.Level]float64{}
		}
		perDC[r.DC][r.Level] = r.ReductionPct
	}
	// Allow a small tolerance: on well-mixed baselines (DC1) the suite- and
	// leaf-level reductions converge and sampling noise can invert them by
	// a fraction of a point.
	for dc, m := range perDC {
		if m[powertree.RPP] < m[powertree.Suite]-1.0 {
			t.Fatalf("%s: RPP %v below SUITE %v", dc, m[powertree.RPP], m[powertree.Suite])
		}
	}
	if got := FormatFig10(rows); !strings.Contains(got, "RPP") {
		t.Fatal("FormatFig10 output")
	}
}

func TestFig11Shape(t *testing.T) {
	runs := fullRuns(t)
	rows, err := Fig11(runs)
	if err != nil {
		t.Fatal(err)
	}
	// 3 DCs × 4 configs × 5 levels.
	if len(rows) != 60 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SmoOpNorm <= 0 || r.StatProfNorm <= 0 {
			t.Fatalf("non-positive budgets: %+v", r)
		}
		// SmoOp(u,δ) must beat the StatProf counterpart everywhere.
		if r.SmoOpNorm > r.StatProfNorm+1e-9 {
			t.Fatalf("SmoOp above StatProf: %+v", r)
		}
	}
	// SmoOp(0,0) achieves >several %% reduction vs StatProf(0,0) at RPP.
	for _, r := range rows {
		if r.Level == powertree.RPP && r.Config.UnderProvision == 0 && r.Config.Overbook == 0 {
			if r.SmoOpNorm >= 1 {
				t.Fatalf("SmoOp(0,0) not below 1 at RPP: %+v", r)
			}
		}
	}
	if got := FormatFig11(rows); !strings.Contains(got, "StatProf") {
		t.Fatal("FormatFig11 output")
	}
}

func TestFig12Shape(t *testing.T) {
	runs := fullRuns(t)
	s, err := Fig12(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Conversion must add batch work over the pre-SmoothOperator runtime.
	if s.BatchPost.MeanValue() <= s.BatchPre.MeanValue() {
		t.Fatalf("batch means: post %v pre %v", s.BatchPost.MeanValue(), s.BatchPre.MeanValue())
	}
	// LC throughput grows (extra traffic served).
	if s.LCPost.MeanValue() <= s.LCPre.MeanValue() {
		t.Fatalf("LC means: post %v pre %v", s.LCPost.MeanValue(), s.LCPre.MeanValue())
	}
	if got := FormatFig12(s); !strings.Contains(got, "conversion") {
		t.Fatal("FormatFig12 output")
	}
}

func TestFig13Shape(t *testing.T) {
	runs := fullRuns(t)
	rows, err := Fig13(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ConvLCPct <= 0 {
			t.Fatalf("%s conversion LC gain: %+v", r.DC, r)
		}
		if r.ConvBatchPct <= 0 {
			t.Fatalf("%s conversion batch gain: %+v", r.DC, r)
		}
		if r.TBLCPct < r.ConvLCPct {
			t.Fatalf("%s TB LC below conversion: %+v", r.DC, r)
		}
	}
	if got := FormatFig13(rows); !strings.Contains(got, "throttling") {
		t.Fatal("FormatFig13 output")
	}
}

func TestFig14Shape(t *testing.T) {
	runs := fullRuns(t)
	rows, err := Fig14(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var byDC = map[workload.DCName]Fig14Row{}
	for _, r := range rows {
		byDC[r.DC] = r
		if r.AvgPct <= 0 {
			t.Fatalf("%s avg slack reduction: %+v", r.DC, r)
		}
	}
	// Paper shape: DC3 (LC-heavy, few batch instances) gains least.
	if byDC[workload.DC3].AvgPct > byDC[workload.DC1].AvgPct {
		t.Fatalf("DC3 slack gain should not exceed DC1: %+v", byDC)
	}
	if got := FormatFig14(rows); !strings.Contains(got, "off-peak") {
		t.Fatal("FormatFig14 output")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.SmoothOper {
			t.Fatalf("SmoothOperator must check every box: %+v", r)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"PowerRouting", "StatMux", "DistributedUPS", "✓"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTable1 missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	opt := fastOpt()
	emb, err := AblationEmbedding(workload.DC2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != 2 {
		t.Fatalf("embedding rows: %+v", emb)
	}
	clus, err := AblationClustering(workload.DC2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(clus) != 2 {
		t.Fatalf("clustering rows: %+v", clus)
	}
	basis, err := AblationBasisSize(workload.DC2, opt, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(basis) != 2 {
		t.Fatalf("basis rows: %+v", basis)
	}
	scope, err := AblationBasisScope(workload.DC2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(scope) != 2 {
		t.Fatalf("scope rows: %+v", scope)
	}
	weeks, err := AblationTrainWeeks(workload.DC2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(weeks) != 2 {
		t.Fatalf("weeks rows: %+v", weeks)
	}
	remap, err := AblationRemap(workload.DC2, opt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != 2 {
		t.Fatalf("remap rows: %+v", remap)
	}
	// The paper's design should at least roughly hold up against variants.
	if emb[0].RPPReductionPct <= 0 {
		t.Fatalf("I-to-S reduction not positive: %+v", emb)
	}
	// Both remap-only and the full placement must defragment; which wins
	// depends on how balanced the DC's baseline already is.
	if remap[0].RPPReductionPct <= 0 || remap[1].RPPReductionPct <= 0 {
		t.Fatalf("remap ablation variants must both help: %+v", remap)
	}
	if got := FormatAblation("embedding", emb); !strings.Contains(got, "I-to-S") {
		t.Fatal("FormatAblation output")
	}
}

// TestAblationPaperRowsMatchOptimize pins every ablation's paper row to the
// Fig. 10 pipeline bit for bit: each is the same Optimize run, not a copy
// of it. The config is one where a differently ordered reduction formula
// moves the last bit.
func TestAblationPaperRowsMatchOptimize(t *testing.T) {
	opt := Options{Scale: 2, Step: 30 * time.Minute, Seed: 2}
	run, err := Run(workload.DC3, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := run.Placement.RPPReductionPct
	for _, c := range []struct {
		ablation func() ([]AblationRow, error)
		row      int
	}{
		{func() ([]AblationRow, error) { return AblationEmbedding(workload.DC3, opt) }, 0},
		{func() ([]AblationRow, error) { return AblationClustering(workload.DC3, opt) }, 0},
		{func() ([]AblationRow, error) { return AblationBasisScope(workload.DC3, opt) }, 0},
		{func() ([]AblationRow, error) {
			return AblationBasisSize(workload.DC3, opt, []int{opt.withDefaults().TopServices})
		}, 0},
		{func() ([]AblationRow, error) { return AblationTrainWeeks(workload.DC3, opt) }, 1},
		{func() ([]AblationRow, error) { return AblationRemap(workload.DC3, opt, 0) }, 1},
		{func() ([]AblationRow, error) { return AblationForecast(workload.DC3, opt) }, 0},
	} {
		rows, err := c.ablation()
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[c.row]; got.RPPReductionPct != want {
			t.Errorf("%s: %.17g, Optimize gives %.17g", got.Variant, got.RPPReductionPct, want)
		}
	}
}

func TestRunRejectsUnknownDC(t *testing.T) {
	if _, err := Run("DC9", fastOpt()); err == nil {
		t.Fatal("unknown DC must error")
	}
	if _, err := Setup("DC9", fastOpt()); err == nil {
		t.Fatal("unknown DC must error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 2 || o.Step != 30*time.Minute || o.Seed != 1 || o.TopServices != 8 {
		t.Fatalf("defaults: %+v", o)
	}
}
