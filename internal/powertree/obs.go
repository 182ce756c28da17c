package powertree

import "repro/internal/obs"

// Tree aggregation metrics (see DESIGN.md "Observability"). Counters are
// bumped after the leaf fan-out completes, so values are replay-
// deterministic at any worker count.
var (
	obsAggregations = obs.Default().Counter("smoothop_powertree_aggregations_total",
		"Completed AggregateAll passes.")
	obsNodesAggregated = obs.Default().Counter("smoothop_powertree_nodes_aggregated_total",
		"Tree nodes covered by AggregateAll passes.")
	obsAggregateSpan = obs.Default().Span("smoothop_powertree_aggregate_seconds",
		"Wall time of one AggregateAll pass.")
	obsBreakerChecks = obs.Default().Counter("smoothop_powertree_breaker_checks_total",
		"Completed CheckBreakers scans.")
	obsBreakerTrips = obs.Default().Counter("smoothop_powertree_breaker_trips_total",
		"Breaker-trip episodes reported by CheckBreakers.")
)

// Delta-aggregation metrics. All counters are bumped after the dirty-leaf
// fan-out and serial recombine complete, outside any parallel closure, so
// totals stay replay-deterministic at any worker count.
var (
	obsDeltaUpdates = obs.Default().Counter("smoothop_powertree_delta_updates_total",
		"Completed incremental Aggregator.Update passes (excluding no-ops).")
	obsDeltaNoops = obs.Default().Counter("smoothop_powertree_delta_noops_total",
		"Aggregator.Update calls that found no dirty leaves and returned the cached snapshot.")
	obsDeltaDirtyLeaves = obs.Default().Counter("smoothop_powertree_delta_dirty_leaves_total",
		"Dirty leaves re-folded by incremental updates.")
	obsDeltaNodesRecombined = obs.Default().Counter("smoothop_powertree_delta_nodes_recombined_total",
		"Tree nodes recomputed (dirty leaves plus dirty ancestors) by incremental updates.")
	obsDeltaRebuilds = obs.Default().Counter("smoothop_powertree_delta_rebuilds_total",
		"Aggregators built from scratch: one full aggregation each, the cost every later delta update avoids.")
	obsDeltaSpan = obs.Default().Span("smoothop_powertree_delta_seconds",
		"Wall time of one incremental Aggregator.Update pass (excluding no-ops).")
	obsDeltaLastDirty = obs.Default().Gauge("smoothop_powertree_delta_last_dirty_leaves",
		"Dirty-leaf count of the most recent non-no-op incremental update.")
)
