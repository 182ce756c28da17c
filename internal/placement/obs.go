package placement

import "repro/internal/obs"

// Remap metrics (see DESIGN.md "Observability"). The swap search is serial,
// so the counters are exact; they are recorded once per completed search
// (a Remap whose worst leaf scores below its floor), so a failed remap, or
// one that only scored the leaves, contributes nothing.
var (
	obsRemaps = obs.Default().Counter("smoothop_placement_remaps_total",
		"Completed Remap swap searches.")
	obsSwapsAttempted = obs.Default().Counter("smoothop_placement_swaps_attempted_total",
		"Candidate swap pairs evaluated by Remap.")
	obsPairsScored = obs.Default().Counter("smoothop_placement_swap_pairs_scored_total",
		"Candidate swap pairs Remap scored with an exact differential: those its upper bounds could not reject.")
	obsSwapsApplied = obs.Default().Counter("smoothop_placement_swaps_applied_total",
		"Swaps accepted and applied by Remap.")
	obsRemapSpan = obs.Default().Span("smoothop_placement_remap_seconds",
		"Wall time of one Remap swap search.")
)

// Online placement metrics. Admissions and retirements are counted once per
// completed call; a rejected admission (no feasible leaf) counts only on the
// rejection counter. Experiments running policies concurrently increment
// these from several goroutines, which is safe and keeps the totals exact.
var (
	obsAdmissions = obs.Default().Counter("smoothop_placement_admissions_total",
		"Instances admitted by online placement.")
	obsAdmissionRejects = obs.Default().Counter("smoothop_placement_admission_rejections_total",
		"Online admissions rejected because no leaf could host without a breaker violation or a declared capacity overflow.")
	obsTracePasses = obs.Default().Counter("smoothop_placement_admission_trace_passes_total",
		"Passes over a node's aggregate trace made by online admissions: feasibility, differential and on-demand headroom passes.")
	obsRetirements = obs.Default().Counter("smoothop_placement_retirements_total",
		"Instances retired by online placement.")
	obsResyncs = obs.Default().Counter("smoothop_placement_resyncs_total",
		"Completed Online.Resync reconciliations after external tree mutations.")
	obsResyncLeaves = obs.Default().Counter("smoothop_placement_resync_leaves_total",
		"Leaves re-snapshotted by Online.Resync calls.")
)
