// Repository-level benchmarks: one per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices DESIGN.md
// calls out. Each benchmark regenerates its figure's data through the
// experiments package and reports the headline quantity as a custom metric,
// so `go test -bench=.` reproduces the whole evaluation.
package repro_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// benchOpt sizes benchmark runs: small fleets, coarse steps, fixed seed.
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 1, Step: time.Hour, Seed: 1, TopServices: 8}
}

func BenchmarkFig5ServiceMix(b *testing.B) {
	b.ReportAllocs()
	var top float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		top = rows[0].SharePct
	}
	b.ReportMetric(top, "top-share-%")
}

func BenchmarkFig6DiurnalBands(b *testing.B) {
	b.ReportAllocs()
	var swing float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		outer := series[0].Bands[0]
		lo, hi := outer.Lo[0], outer.Hi[0]
		for t := range outer.Lo {
			if outer.Lo[t] < lo {
				lo = outer.Lo[t]
			}
			if outer.Hi[t] > hi {
				hi = outer.Hi[t]
			}
		}
		swing = hi - lo
	}
	b.ReportMetric(swing, "frontend-band-swing")
}

func BenchmarkFig8ClusterEmbedding(b *testing.B) {
	b.ReportAllocs()
	var n float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8(benchOpt(), 6)
		if err != nil {
			b.Fatal(err)
		}
		n = float64(len(points))
	}
	b.ReportMetric(n, "points")
}

// pipelineRuns executes the full 3-DC pipeline once per benchmark iteration.
func pipelineRuns(b *testing.B) []*experiments.DCRun {
	b.Helper()
	runs, err := experiments.RunSome(workload.AllDCs, benchOpt())
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

func BenchmarkFig9ChildTraces(b *testing.B) {
	b.ReportAllocs()
	var reduction float64
	for i := 0; i < b.N; i++ {
		runs := pipelineRuns(b)
		r, err := experiments.Fig9(runs[2]) // DC3: the paper's Fig. 9 subject class
		if err != nil {
			b.Fatal(err)
		}
		reduction = 100 * (r.BeforePeakSum - r.AfterPeakSum) / r.BeforePeakSum
	}
	b.ReportMetric(reduction, "child-peak-reduction-%")
}

func BenchmarkFig10PeakReduction(b *testing.B) {
	b.ReportAllocs()
	var dc3 float64
	for i := 0; i < b.N; i++ {
		runs := pipelineRuns(b)
		rows, err := experiments.Fig10(runs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DC == workload.DC3 && r.Level == powertree.RPP {
				dc3 = r.ReductionPct
			}
		}
	}
	b.ReportMetric(dc3, "dc3-rpp-reduction-%")
}

func BenchmarkFig11StatProf(b *testing.B) {
	b.ReportAllocs()
	var smoop float64
	for i := 0; i < b.N; i++ {
		runs := pipelineRuns(b)
		rows, err := experiments.Fig11(runs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DC == workload.DC3 && r.Level == powertree.RPP &&
				r.Config.UnderProvision == 0 && r.Config.Overbook == 0 {
				smoop = 100 * (1 - r.SmoOpNorm)
			}
		}
	}
	b.ReportMetric(smoop, "dc3-smoop00-vs-statprof00-%")
}

func BenchmarkFig12Conversion(b *testing.B) {
	b.ReportAllocs()
	var batchGain float64
	for i := 0; i < b.N; i++ {
		runs := pipelineRuns(b)
		s, err := experiments.Fig12(runs[2])
		if err != nil {
			b.Fatal(err)
		}
		batchGain = 100 * (s.BatchPost.MeanValue() - s.BatchPre.MeanValue()) / s.BatchPre.MeanValue()
	}
	b.ReportMetric(batchGain, "dc3-batch-gain-%")
}

func BenchmarkFig13Throughput(b *testing.B) {
	b.ReportAllocs()
	var lc float64
	for i := 0; i < b.N; i++ {
		runs := pipelineRuns(b)
		rows, err := experiments.Fig13(runs)
		if err != nil {
			b.Fatal(err)
		}
		lc = rows[2].TBLCPct
	}
	b.ReportMetric(lc, "dc3-tb-lc-gain-%")
}

func BenchmarkFig14Slack(b *testing.B) {
	b.ReportAllocs()
	var avg float64
	for i := 0; i < b.N; i++ {
		runs := pipelineRuns(b)
		rows, err := experiments.Fig14(runs)
		if err != nil {
			b.Fatal(err)
		}
		avg = rows[0].AvgPct
	}
	b.ReportMetric(avg, "dc1-avg-slack-reduction-%")
}

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	b.ReportAllocs()
	var rows float64
	for i := 0; i < b.N; i++ {
		rows = float64(len(experiments.Table1()))
	}
	b.ReportMetric(rows, "rows")
}

// Ablation benches — the design choices DESIGN.md calls out.

func benchAblation(b *testing.B, run func() ([]experiments.AblationRow, error), metric string, pick int) {
	b.Helper()
	var v float64
	for i := 0; i < b.N; i++ {
		rows, err := run()
		if err != nil {
			b.Fatal(err)
		}
		v = rows[pick].RPPReductionPct
	}
	b.ReportMetric(v, metric)
}

func BenchmarkAblationIToSEmbedding(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationEmbedding(workload.DC3, benchOpt())
	}, "itos-rpp-reduction-%", 0)
}

func BenchmarkAblationIToIEmbedding(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationEmbedding(workload.DC3, benchOpt())
	}, "itoi-rpp-reduction-%", 1)
}

func BenchmarkAblationBalancedKMeans(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationClustering(workload.DC3, benchOpt())
	}, "balanced-rpp-reduction-%", 0)
}

func BenchmarkAblationPlainKMeans(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationClustering(workload.DC3, benchOpt())
	}, "plain-rpp-reduction-%", 1)
}

func BenchmarkAblationBasisSize(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationBasisSize(workload.DC3, benchOpt(), []int{2, 4, 8})
	}, "b8-rpp-reduction-%", 2)
}

func BenchmarkAblationGlobalBasis(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationBasisScope(workload.DC3, benchOpt())
	}, "global-basis-rpp-reduction-%", 1)
}

func BenchmarkAblationTrainWeeks(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationTrainWeeks(workload.DC3, benchOpt())
	}, "train2wk-rpp-reduction-%", 1)
}

func BenchmarkAblationRemapOnly(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationRemap(workload.DC3, benchOpt(), 32)
	}, "remap-rpp-reduction-%", 0)
}

// Extension benches — the quantitative versions of the paper's related-work
// arguments (§1/§6).

func BenchmarkExtensionESDBaseline(b *testing.B) {
	b.ReportAllocs()
	var coverage float64
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.ExtensionESD(workload.DC3, benchOpt(), 10, 1.02)
		if err != nil {
			b.Fatal(err)
		}
		coverage = 100 * cmp.ObliviousCoverage
	}
	b.ReportMetric(coverage, "ups-coverage-%")
}

func BenchmarkExtensionCappingFrequency(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		study, err := experiments.ExtensionCapping(workload.DC3, benchOpt(), 1.02)
		if err != nil {
			b.Fatal(err)
		}
		if study.SmartThrottles > 0 {
			ratio = float64(study.ObliviousThrottles) / float64(study.SmartThrottles)
		} else {
			ratio = float64(study.ObliviousThrottles)
		}
	}
	b.ReportMetric(ratio, "oblivious/smart-throttle-ratio")
}

func BenchmarkExtensionPowerRouting(b *testing.B) {
	b.ReportAllocs()
	var placedGain float64
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.ExtensionRouting(workload.DC3, benchOpt(), 8)
		if err != nil {
			b.Fatal(err)
		}
		placedGain = 100 * (cmp.StaticSum - cmp.PlacedSum) / cmp.StaticSum
	}
	b.ReportMetric(placedGain, "placement-vs-static-%")
}

func BenchmarkSensitivityJitter(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SweepHeterogeneity(workload.DC3, benchOpt(), []float64{0.25, 3.5})
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[1].RPPReductionPct - rows[0].RPPReductionPct
	}
	b.ReportMetric(spread, "jitter-gain-spread-pp")
}

func BenchmarkAblationForecastPlacement(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.AblationForecast(workload.DC3, benchOpt())
	}, "forecast-rpp-reduction-%", 1)
}

// Serial vs parallel benches — the same work at workers=1 and workers=8.
// Outputs are bit-identical (see equivalence_test.go); only wall-clock
// should differ. `make bench-parallel` runs exactly these.

// benchScoreInput builds a scoring workload big enough that per-instance
// work dominates scheduling overhead: 512 day-long instance traces against
// an 8-trace basis.
func benchScoreInput() ([]timeseries.Series, []timeseries.Series) {
	t0 := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(17))
	insts := make([]timeseries.Series, 512)
	for i := range insts {
		s := timeseries.Zeros(t0, 5*time.Minute, 288)
		for j := range s.Values {
			s.Values[j] = 50 + 250*rng.Float64()
		}
		insts[i] = s
	}
	return insts, insts[:8]
}

func benchmarkScoreVectors(b *testing.B, workers int) {
	b.ReportAllocs()
	insts, basis := benchScoreInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := score.VectorsParallel(insts, basis, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoreVectorsSerial(b *testing.B)    { benchmarkScoreVectors(b, 1) }
func BenchmarkScoreVectorsParallel8(b *testing.B) { benchmarkScoreVectors(b, 8) }

func benchmarkKMeansRestarts(b *testing.B, workers int) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	points := make([][]float64, 600)
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, cluster.Config{K: 8, Seed: 3, Restarts: 8, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansRestartsSerial(b *testing.B)    { benchmarkKMeansRestarts(b, 1) }
func BenchmarkKMeansRestartsParallel8(b *testing.B) { benchmarkKMeansRestarts(b, 8) }

func benchmarkSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	opt := benchOpt()
	opt.Workers = workers
	mixes := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepBaselineMix(workload.DC3, opt, mixes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepBaselineMixSerial(b *testing.B)    { benchmarkSweep(b, 1) }
func BenchmarkSweepBaselineMixParallel8(b *testing.B) { benchmarkSweep(b, 8) }
