package experiments

import (
	"fmt"
	"strings"

	"repro/internal/powertree"
	"repro/internal/statprof"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Fig. 9

// Fig9Result holds the parent and children power traces of one mid-level
// node before and after workload-aware placement.
type Fig9Result struct {
	// Node is the mid-level (MSB) node studied.
	Node string
	// Parent is the node's aggregate trace (identical pre/post: placement
	// within the subtree cannot change the subtree total).
	Parent timeseries.Series
	// Before and After are the children (SB) traces under each placement.
	Before, After []timeseries.Series
	// BeforePeakSum and AfterPeakSum are Σ child peaks.
	BeforePeakSum, AfterPeakSum float64
}

// Fig9 reproduces the trace comparison of Fig. 9 on the first MSB of DC1.
func Fig9(run *DCRun) (*Fig9Result, error) {
	if run.Placement == nil {
		return nil, fmt.Errorf("experiments: run has no placement result")
	}
	beforeNode := run.Placement.BaselineTree.NodesAtLevel(powertree.MSB)[0]
	afterNode := run.Placement.OptimizedTree.Find(beforeNode.Name)
	if afterNode == nil {
		return nil, fmt.Errorf("experiments: node %q missing from optimized tree", beforeNode.Name)
	}
	res := &Fig9Result{Node: beforeNode.Name}
	beforeAggs, afterAggs := run.Placement.BaselineAggs, run.Placement.OptimizedAggs
	if parent, ok := afterAggs.Trace(afterNode); ok {
		res.Parent = parent
	}
	collect := func(n *powertree.Node, aggs *powertree.Aggregates) ([]timeseries.Series, float64) {
		var out []timeseries.Series
		var peaks float64
		for _, c := range n.Children {
			agg, ok := aggs.Trace(c)
			if !ok || agg.Empty() {
				continue
			}
			out = append(out, agg)
			peaks += aggs.Peak(c)
		}
		return out, peaks
	}
	res.Before, res.BeforePeakSum = collect(beforeNode, beforeAggs)
	res.After, res.AfterPeakSum = collect(afterNode, afterAggs)
	return res, nil
}

// FormatFig9 summarises the child-trace smoothing.
func FormatFig9(r *Fig9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — children power traces under %s (held-out week)\n", r.Node)
	fmt.Fprintf(&b, "  parent peak:               %10.1f\n", r.Parent.Peak())
	fmt.Fprintf(&b, "  Σ child peaks (oblivious): %10.1f\n", r.BeforePeakSum)
	fmt.Fprintf(&b, "  Σ child peaks (SmoothOp):  %10.1f\n", r.AfterPeakSum)
	for i, s := range r.Before {
		fmt.Fprintf(&b, "  orig. child%-2d peak %8.1f  swing %6.1f%%\n", i+1, s.Peak(), swingPct(s))
	}
	for i, s := range r.After {
		fmt.Fprintf(&b, "  opt.  child%-2d peak %8.1f  swing %6.1f%%\n", i+1, s.Peak(), swingPct(s))
	}
	return b.String()
}

// swingPct is the peak-to-trough swing as a percentage of the peak. Empty
// and all-zero series report 0: since the empty-series convention changed
// Peak() from −Inf to 0, dividing by the peak unguarded would turn such a
// child into NaN.
func swingPct(s timeseries.Series) float64 {
	p := s.Peak()
	if p <= 0 {
		return 0
	}
	return 100 * (p - s.Min()) / p
}

// ---------------------------------------------------------------- Fig. 10

// Fig10Row is one bar of Fig. 10: peak reduction at one level of one DC.
type Fig10Row struct {
	DC           workload.DCName
	Level        powertree.Level
	ReductionPct float64
}

// Fig10 extracts the per-level peak reductions from completed runs.
func Fig10(runs []*DCRun) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, run := range runs {
		if run.Placement == nil {
			return nil, fmt.Errorf("experiments: %s has no placement result", run.Name)
		}
		for _, rep := range run.Placement.PeakReports {
			if rep.Level == powertree.DC {
				continue // the paper reports SUITE..RPP
			}
			rows = append(rows, Fig10Row{DC: run.Name, Level: rep.Level, ReductionPct: rep.ReductionPct})
		}
	}
	return rows, nil
}

// FormatFig10 renders the grouped bars as a table.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Fig. 10 — peak power reduction by level (held-out week)\n")
	b.WriteString("  DC    SUITE     MSB      SB       RPP\n")
	byDC := make(map[workload.DCName]map[powertree.Level]float64)
	var order []workload.DCName
	for _, r := range rows {
		if byDC[r.DC] == nil {
			byDC[r.DC] = make(map[powertree.Level]float64)
			order = append(order, r.DC)
		}
		byDC[r.DC][r.Level] = r.ReductionPct
	}
	for _, dc := range order {
		m := byDC[dc]
		fmt.Fprintf(&b, "  %-4s %6.1f%%  %6.1f%%  %6.1f%%  %6.1f%%\n",
			dc, m[powertree.Suite], m[powertree.MSB], m[powertree.SB], m[powertree.RPP])
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 11

// Fig11Row is one point of Fig. 11: the normalized required budget of one
// policy configuration at one level of one DC.
type Fig11Row struct {
	DC     workload.DCName
	Level  powertree.Level
	Config statprof.Config
	// StatProfNorm and SmoOpNorm are required budgets normalized to
	// StatProf(0,0) on the baseline placement at the same level.
	StatProfNorm, SmoOpNorm float64
}

// Fig11 compares StatProf(u,δ) on the baseline placement against
// SmoOp(u,δ) on the workload-aware placement for the paper's four configs.
func Fig11(runs []*DCRun) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, run := range runs {
		if run.Placement == nil {
			return nil, fmt.Errorf("experiments: %s has no placement result", run.Name)
		}
		testFn := powertree.PowerFn(workload.SubPowerFn(run.Placement.TestTraces))
		// Normalizer: StatProf(0,0) per level on the baseline tree.
		base, err := statprof.StatProf(run.Placement.BaselineTree, testFn, statprof.Config{})
		if err != nil {
			return nil, err
		}
		norm := make(map[powertree.Level]float64, len(base))
		for _, r := range base {
			norm[r.Level] = r.Budget
		}
		for _, cfg := range statprof.PaperConfigs {
			sp, err := statprof.StatProf(run.Placement.BaselineTree, testFn, cfg)
			if err != nil {
				return nil, err
			}
			so, err := statprof.SmoothOperator(run.Placement.OptimizedAggs, cfg)
			if err != nil {
				return nil, err
			}
			for i := range sp {
				level := sp[i].Level
				if norm[level] == 0 {
					continue
				}
				rows = append(rows, Fig11Row{
					DC: run.Name, Level: level, Config: cfg,
					StatProfNorm: sp[i].Budget / norm[level],
					SmoOpNorm:    so[i].Budget / norm[level],
				})
			}
		}
	}
	return rows, nil
}

// FormatFig11 renders the normalized required budgets.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Fig. 11 — normalized required power budget (1.00 = StatProf(0,0))\n")
	cur := ""
	for _, r := range rows {
		key := string(r.DC)
		if key != cur {
			cur = key
			fmt.Fprintf(&b, "\n%s:\n", r.DC)
			b.WriteString("  level  config      StatProf  SmoOp\n")
		}
		fmt.Fprintf(&b, "  %-6s %-11s %8.3f  %6.3f\n", r.Level, r.Config, r.StatProfNorm, r.SmoOpNorm)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 12

// Fig12Series is the conversion time-series study of one DC.
type Fig12Series struct {
	DC workload.DCName
	// PerLCServerLoadPre/Post, BatchPre/Post, LCPre/Post mirror the three
	// sub-plots of Fig. 12 (pre-SmoothOperator vs SmoothOperator).
	PerLCServerLoadPre, PerLCServerLoadPost timeseries.Series
	BatchPre, BatchPost                     timeseries.Series
	LCPre, LCPost                           timeseries.Series
}

// Fig12 extracts the conversion-impact series from a completed run.
func Fig12(run *DCRun) (*Fig12Series, error) {
	if run.Reshape == nil {
		return nil, fmt.Errorf("experiments: %s has no reshape result", run.Name)
	}
	rr := run.Reshape
	return &Fig12Series{
		DC:                  run.Name,
		PerLCServerLoadPre:  rr.Baseline.PerLCServerLoad,
		PerLCServerLoadPost: rr.Conversion.PerLCServerLoad,
		BatchPre:            rr.Baseline.BatchThroughput,
		BatchPost:           rr.Conversion.BatchThroughput,
		LCPre:               rr.Baseline.LCThroughput,
		LCPost:              rr.Conversion.LCThroughput,
	}, nil
}

// FormatFig12 summarises the series.
func FormatFig12(s *Fig12Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 — server conversion impact (%s, held-out week)\n", s.DC)
	fmt.Fprintf(&b, "  per-LC-server load:  pre peak %.3f  post peak %.3f\n",
		s.PerLCServerLoadPre.Peak(), s.PerLCServerLoadPost.Peak())
	fmt.Fprintf(&b, "  batch throughput:    pre mean %.1f  post mean %.1f (server-equivalents)\n",
		s.BatchPre.MeanValue(), s.BatchPost.MeanValue())
	fmt.Fprintf(&b, "  LC throughput:       pre mean %.1f  post mean %.1f (guarded-capacity units)\n",
		s.LCPre.MeanValue(), s.LCPost.MeanValue())
	return b.String()
}

// ---------------------------------------------------------------- Fig. 13

// Fig13Row is one DC's throughput-improvement bars.
type Fig13Row struct {
	DC workload.DCName
	// ConvLCPct/ConvBatchPct: server conversion alone.
	ConvLCPct, ConvBatchPct float64
	// TBLCPct/TBBatchPct: with proactive throttling and boosting.
	TBLCPct, TBBatchPct float64
}

// Fig13 extracts throughput improvements from completed runs.
func Fig13(runs []*DCRun) ([]Fig13Row, error) {
	var rows []Fig13Row
	for _, run := range runs {
		if run.Reshape == nil {
			return nil, fmt.Errorf("experiments: %s has no reshape result", run.Name)
		}
		rr := run.Reshape
		rows = append(rows, Fig13Row{
			DC:           run.Name,
			ConvLCPct:    rr.ConvImp.LCPct,
			ConvBatchPct: rr.ConvImp.BatchPct,
			TBLCPct:      rr.TBImp.LCPct,
			TBBatchPct:   rr.TBImp.BatchPct,
		})
	}
	return rows, nil
}

// FormatFig13 renders the grouped bars.
func FormatFig13(rows []Fig13Row) string {
	var b strings.Builder
	b.WriteString("Fig. 13 — throughput improvement over pre-SmoothOperator\n")
	b.WriteString("             server conversion    + throttling & boosting\n")
	b.WriteString("  DC          LC      Batch         LC      Batch\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s    %5.1f%%   %5.1f%%      %5.1f%%   %5.1f%%\n",
			r.DC, r.ConvLCPct, r.ConvBatchPct, r.TBLCPct, r.TBBatchPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 14

// Fig14Row is one DC's slack-reduction bars.
type Fig14Row struct {
	DC workload.DCName
	// AvgPct and OffPeakPct are average and off-peak power-slack reductions.
	AvgPct, OffPeakPct float64
}

// Fig14 extracts slack reductions from completed runs.
func Fig14(runs []*DCRun) ([]Fig14Row, error) {
	var rows []Fig14Row
	for _, run := range runs {
		if run.Reshape == nil {
			return nil, fmt.Errorf("experiments: %s has no reshape result", run.Name)
		}
		rows = append(rows, Fig14Row{
			DC:         run.Name,
			AvgPct:     run.Reshape.AvgSlackReductionPct,
			OffPeakPct: run.Reshape.OffPeakSlackReductionPct,
		})
	}
	return rows, nil
}

// FormatFig14 renders the bars.
func FormatFig14(rows []Fig14Row) string {
	var b strings.Builder
	b.WriteString("Fig. 14 — power slack reduction\n")
	b.WriteString("  DC     avg       off-peak\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s  %5.1f%%    %5.1f%%\n", r.DC, r.AvgPct, r.OffPeakPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one row of the qualitative comparison table.
type Table1Row struct {
	Property                                          string
	PowerRouting, StatMux, DistributedUPS, SmoothOper bool
}

// Table1 returns the paper's qualitative feature matrix.
func Table1() []Table1Row {
	return []Table1Row{
		{"Using temporal information", false, false, true, true},
		{"Using existing power infra.", false, true, true, true},
		{"Automated process", true, false, false, true},
		{"Balancing local peaks", true, false, false, true},
		{"Proactive planning", false, true, false, true},
	}
}

// FormatTable1 renders the matrix.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — comparison with prior approaches\n")
	fmt.Fprintf(&b, "  %-30s %-13s %-9s %-15s %s\n", "", "PowerRouting", "StatMux", "DistributedUPS", "SmoothOperator")
	mark := func(v bool) string {
		if v {
			return "✓"
		}
		return "—"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-30s %-13s %-9s %-15s %s\n", r.Property,
			mark(r.PowerRouting), mark(r.StatMux), mark(r.DistributedUPS), mark(r.SmoothOper))
	}
	return b.String()
}
