package powertree

import (
	"fmt"

	"repro/internal/timeseries"
)

// oracleAggregate is the independent per-node reference the aggregation
// tests compare AggregateAll and the Aggregator's delta path against. It
// re-walks the node's subtree from scratch: the node's own instance traces
// are summed in order, then each child's recursively computed aggregate is
// added in child order — the operation order combineEntry preserves, so the
// two are bit-identical. Instances whose trace is unknown are skipped and
// reported in pre-order tree order.
func oracleAggregate(n *Node, power PowerFn) (timeseries.Series, []string, error) {
	agg, started, missing, err := oracleRecursive(n, power, n.Name)
	if err != nil || !started {
		return timeseries.Series{}, missing, err
	}
	return agg, missing, nil
}

// oracleRecursive folds one subtree for oracleAggregate. root names the node
// the aggregation was requested for (used in errors); started distinguishes
// "no traced instances anywhere" from a genuine (possibly zero-length)
// aggregate.
func oracleRecursive(n *Node, power PowerFn, root string) (agg timeseries.Series, started bool, missing []string, err error) {
	for _, id := range n.Instances {
		s, ok := power(id)
		if !ok {
			missing = append(missing, id)
			continue
		}
		if !started {
			agg = s.Clone()
			started = true
			continue
		}
		if e := agg.AddInPlace(s); e != nil {
			return timeseries.Series{}, false, missing, fmt.Errorf("powertree: aggregating %q under %q: %w", id, root, e)
		}
	}
	for _, c := range n.Children {
		cagg, cstarted, cmissing, cerr := oracleRecursive(c, power, root)
		missing = append(missing, cmissing...)
		if cerr != nil {
			return timeseries.Series{}, false, missing, cerr
		}
		if !cstarted {
			continue
		}
		if !started {
			agg = cagg
			started = true
			continue
		}
		if e := agg.AddInPlace(cagg); e != nil {
			return timeseries.Series{}, false, missing, fmt.Errorf("powertree: combining %q into %q: %w", c.Name, n.Name, e)
		}
	}
	return agg, started, missing, nil
}

// oraclePeak is the peak of oracleAggregate's trace, or 0 when the subtree
// hosts no traced instances.
func oraclePeak(n *Node, power PowerFn) (float64, error) {
	agg, _, err := oracleAggregate(n, power)
	if err != nil {
		return 0, err
	}
	return agg.Peak(), nil
}
