package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/powertree"
)

// NodeUtilization summarises one power node's budget usage over a window.
type NodeUtilization struct {
	// Node and Level identify the power node.
	Node  string
	Level powertree.Level
	// Budget, Peak and Mean are in trace units.
	Budget, Peak, Mean float64
	// PeakPct and MeanPct are peak/mean as percentages of budget.
	PeakPct, MeanPct float64
}

// LevelUtilization computes per-node utilization at one level. Each node's
// subtree is aggregated on its own, so traces that are misaligned only
// across two nodes of the level do not fail it.
func LevelUtilization(tree *powertree.Node, level powertree.Level, traces powertree.PowerFn) ([]NodeUtilization, error) {
	var out []NodeUtilization
	for _, n := range tree.NodesAtLevel(level) {
		aggs, err := n.AggregateAll(traces)
		if err != nil {
			return nil, err
		}
		out = appendUtilization(out, aggs, n)
	}
	return out, nil
}

// appendUtilization appends n's row to out, skipping a node that hosts no
// traced instances.
func appendUtilization(out []NodeUtilization, aggs *powertree.Aggregates, n *powertree.Node) []NodeUtilization {
	agg, _ := aggs.Trace(n)
	if agg.Empty() {
		return out
	}
	u := NodeUtilization{
		Node: n.Name, Level: n.Level,
		Budget: n.Budget, Peak: agg.Peak(), Mean: agg.MeanValue(),
	}
	if n.Budget > 0 {
		u.PeakPct = 100 * u.Peak / n.Budget
		u.MeanPct = 100 * u.Mean / n.Budget
	}
	return append(out, u)
}

// UtilizationReport renders a per-level utilization table for a placed tree
// — the operator's view of where budget fragments. The table covers the
// root's own level, so it needs the whole tree to aggregate: one
// AggregateAll serves every level.
func UtilizationReport(tree *powertree.Node, traces powertree.PowerFn) (string, error) {
	aggs, err := tree.AggregateAll(traces)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("power budget utilization by level\n")
	b.WriteString("  level  nodes   peak util (min/mean/max)   mean util\n")
	for _, level := range powertree.Levels {
		var rows []NodeUtilization
		for _, n := range aggs.NodesAtLevel(level) {
			rows = appendUtilization(rows, aggs, n)
		}
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
	return b.String(), nil
}

// FragmentedNodes returns the n leaf nodes with the highest peak
// utilization — the nodes whose budgets fragment first and whose breakers
// are closest to tripping.
func FragmentedNodes(tree *powertree.Node, traces powertree.PowerFn, n int) ([]NodeUtilization, error) {
	rows, err := LevelUtilization(tree, powertree.RPP, traces)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].PeakPct > rows[j].PeakPct })
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n], nil
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
