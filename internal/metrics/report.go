package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/powertree"
)

// NodeUtilization summarises one power node's budget usage over a window.
type NodeUtilization struct {
	// Node names the power node.
	Node string
	// Budget, Peak and Mean are in trace units.
	Budget, Peak, Mean float64
	// PeakPct and MeanPct are peak/mean as percentages of budget.
	PeakPct, MeanPct float64
}

// LevelUtilization computes per-node utilization at one level from the
// tree's aggregation, in tree order, skipping nodes that host no traced
// instances.
func LevelUtilization(aggs *powertree.Aggregates, level powertree.Level) []NodeUtilization {
	var out []NodeUtilization
	for _, n := range aggs.NodesAtLevel(level) {
		agg, _ := aggs.Trace(n)
		if agg.Empty() {
			continue
		}
		u := NodeUtilization{Node: n.Name, Budget: n.Budget, Peak: agg.Peak(), Mean: agg.MeanValue()}
		if n.Budget > 0 {
			u.PeakPct = 100 * u.Peak / n.Budget
			u.MeanPct = 100 * u.Mean / n.Budget
		}
		out = append(out, u)
	}
	return out
}

// UtilizationReport renders a per-level utilization table for a placed
// tree's aggregation — the operator's view of where budget fragments.
func UtilizationReport(aggs *powertree.Aggregates) string {
	var b strings.Builder
	b.WriteString("power budget utilization by level\n")
	b.WriteString("  level  nodes   peak util (min/mean/max)   mean util\n")
	for _, level := range powertree.Levels {
		rows := LevelUtilization(aggs, level)
		if len(rows) == 0 {
			continue
		}
		minP, maxP, sumP, sumM := rows[0].PeakPct, rows[0].PeakPct, 0.0, 0.0
		for _, r := range rows {
			if r.PeakPct < minP {
				minP = r.PeakPct
			}
			if r.PeakPct > maxP {
				maxP = r.PeakPct
			}
			sumP += r.PeakPct
			sumM += r.MeanPct
		}
		n := float64(len(rows))
		fmt.Fprintf(&b, "  %-6s %5d   %5.1f%% / %5.1f%% / %5.1f%%      %5.1f%%\n",
			level, len(rows), minP, sumP/n, maxP, sumM/n)
	}
	return b.String()
}

// FragmentedNodes returns the n leaf nodes with the highest peak
// utilization — the nodes whose budgets fragment first and whose breakers
// are closest to tripping.
func FragmentedNodes(aggs *powertree.Aggregates, n int) []NodeUtilization {
	rows := LevelUtilization(aggs, powertree.RPP)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].PeakPct > rows[j].PeakPct })
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n]
}

// FormatFragmented renders the hot-node list.
func FormatFragmented(rows []NodeUtilization) string {
	var b strings.Builder
	b.WriteString("most fragmented leaf nodes (by peak utilization)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s peak %6.1f%%  mean %6.1f%%  (budget %.0f)\n",
			r.Node, r.PeakPct, r.MeanPct, r.Budget)
	}
	return b.String()
}
