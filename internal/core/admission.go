package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
)

// Online admission: the runtime's arrival-stream path. Bootstrap places a
// whole fleet snapshot at once; deployments then churn one instance at a
// time. AdmitInstance scores an arriving instance from its stored telemetry
// (falling back to its service's reference trace below the quarantine
// floor, exactly like Bootstrap) and hands it to the view's placement.Online
// over the live tree. RetireInstance releases a departing instance. Both are
// safe for concurrent use — the HTTP layer calls them from request
// goroutines — and both end in viewChanged, which refreshes the per-level
// fragmentation gauges.

// AdmitRequest describes one arriving instance for Admit — the redesigned
// admission entry point (AdmitInstance remains as a positional shorthand).
//
// smoothop:immutable
type AdmitRequest struct {
	// ID and Service identify the instance; both are required.
	ID, Service string
	// AsOf is the telemetry time the scoring trace is read at; zero means
	// the latest Bootstrap/Tick time (the stored telemetry's clock, not the
	// wall clock).
	AsOf time.Time
	// TrainWeeks is the averaging window; < 1 means the framework default.
	TrainWeeks int
	// Demands optionally declares the instance's non-power resource demand
	// vector; it is validated, enforced against every capacity dimension the
	// tree declares, and remembered in the runtime's ledger until the
	// instance retires.
	Demands powertree.ResourceVector
}

// placementCfg assembles the placer options for views and tick-time
// remapping: the configured policy with the runtime's own demand
// ledger overlaid on the config's resolver (ledger wins). With no ledger
// entries and no configured resolver the config passes through untouched,
// keeping every multi-resource path inert.
//
// smoothop:locked mu
func (r *Runtime) placementCfg() placement.PolicyConfig {
	cfg := r.placeCfg
	if len(r.demands) == 0 && cfg.Demands == nil {
		return cfg
	}
	ledger := r.demands // allocated once at NewRuntime, mutated under mu
	fallback := cfg.Demands
	cfg.Demands = func(id string) (powertree.ResourceVector, bool) {
		if d, ok := ledger[id]; ok {
			return d, true
		}
		if fallback != nil {
			return fallback(id)
		}
		return nil, false
	}
	return cfg
}

// AdmitInstance places one arriving instance onto the live tree and returns
// the hosting leaf's name — shorthand for Admit with a positional request
// and no demand vector.
func (r *Runtime) AdmitInstance(id, service string, asOf time.Time, trainWeeks int) (string, error) {
	return r.Admit(AdmitRequest{ID: id, Service: service, AsOf: asOf, TrainWeeks: trainWeeks})
}

// Admit places one arriving instance onto the live tree and returns the
// hosting leaf's name. The scoring trace is the instance's averaged I-trace
// as of req.AsOf over req.TrainWeeks weeks; an instance below the
// quarantine floor is admitted on its service's reference trace instead of
// failing. Admission never displaces residents: if no leaf can take the
// instance without a breaker violation — or, when demands and capacities
// are declared, without overflowing a capacity dimension — the error wraps
// placement.ErrNoCapacity and the tree is unchanged.
func (r *Runtime) Admit(req AdmitRequest) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return "", ErrNotPlaced
	}
	id, service := req.ID, req.Service
	if id == "" || service == "" {
		return "", errors.New("core: admission needs an instance id and a service")
	}
	if err := req.Demands.Validate(); err != nil {
		return "", fmt.Errorf("core: admission demands for %q: %w", id, err)
	}
	asOf := req.AsOf
	if asOf.IsZero() {
		asOf = r.evalAsOf
	}
	trainWeeks := req.TrainWeeks
	if trainWeeks < 1 {
		trainWeeks = r.fw.cfg.trainWeeks()
	}
	if err := r.ensureView(asOf, trainWeeks); err != nil {
		return "", err
	}
	v := r.view
	if _, ok := v.online.Leaf(id); ok {
		return "", fmt.Errorf("%w: %q", placement.ErrAlreadyAdmitted, id)
	}
	tr, quarantined, err := r.admissionTrace(id, service, asOf, trainWeeks)
	if err != nil {
		delete(r.quality, id)
		return "", err
	}
	v.traces[id] = tr
	leaf, err := v.online.Admit(placement.Instance{ID: id, Service: service, Demands: req.Demands})
	if err != nil {
		delete(v.traces, id)
		delete(r.quality, id)
		if errors.Is(err, placement.ErrNoCapacity) {
			obsRuntimeAdmissionRejects.Inc()
		}
		return "", err
	}
	r.services[id] = service
	if len(req.Demands) > 0 {
		r.demands[id] = req.Demands.Clone()
	}
	if quarantined {
		v.filled[id] = true
		r.quarantined = append(r.quarantined, id)
		obsQuarantined.Set(float64(len(r.quarantined)))
	}
	obsRuntimeAdmissions.Inc()
	r.viewChanged()
	return leaf.Name, nil
}

// RetireInstance removes a previously placed instance from the live tree
// and returns the leaf that hosted it. Unknown instances wrap
// placement.ErrUnknownInstance.
func (r *Runtime) RetireInstance(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return "", ErrNotPlaced
	}
	leaf, err := r.view.online.Retire(id)
	if err != nil {
		return "", err
	}
	delete(r.view.traces, id)
	delete(r.view.filled, id)
	delete(r.demands, id)
	delete(r.services, id)
	delete(r.quality, id)
	if i := slices.Index(r.quarantined, id); i >= 0 {
		// A fresh slice: the latest DriftReport.Quarantined shares the old one.
		r.quarantined = slices.Concat(r.quarantined[:i], r.quarantined[i+1:])
		obsQuarantined.Set(float64(len(r.quarantined)))
	}
	obsRuntimeRetirements.Inc()
	r.viewChanged()
	return leaf.Name, nil
}

// ensureView makes the runtime's view an admission view for the window
// (asOf, trainWeeks): averaged I-traces for every current resident,
// quarantined residents filled from reference traces. A view already keyed
// at that window is reused as is; anything else — the Bootstrap/Tick view, a
// different window — is rebuilt from the store.
//
// smoothop:locked mu
func (r *Runtime) ensureView(asOf time.Time, trainWeeks int) error {
	if r.view.weeks == trainWeeks && r.view.asOf.Equal(asOf) {
		return nil
	}
	traces, _, quarantined, err := r.scoringTraces("admission view", r.tree.AllInstances(), func(id string) (timeseries.Series, tracestore.Quality, error) {
		return r.residentTrace(id, asOf, trainWeeks)
	})
	if err != nil {
		return err
	}
	v, err := r.newView(traces, quarantined, asOf, trainWeeks)
	if err != nil {
		return fmt.Errorf("core: admission view: %w", err)
	}
	r.setView(v)
	return nil
}

// residentTrace reads one resident's averaged I-trace and grade, treating a
// never-reported instance (e.g. a whole-window dropout) as an empty window
// rather than an error.
func (r *Runtime) residentTrace(id string, asOf time.Time, trainWeeks int) (timeseries.Series, tracestore.Quality, error) {
	tr, q, err := r.store.AveragedITraceQuality(id, asOf, trainWeeks)
	if errors.Is(err, tracestore.ErrUnknownInstance) {
		return timeseries.Series{}, tracestore.Quality{Grade: tracestore.GradeNoData}, nil
	}
	if err != nil {
		return timeseries.Series{}, tracestore.Quality{}, err
	}
	return tr, q, nil
}

// admissionTrace resolves the arriving instance's scoring trace: its own
// averaged I-trace when healthy, otherwise a reference trace computed from
// the view's current healthy residents in tree order (same service first,
// then the whole fleet) — never from instances that have since retired. The
// boolean reports whether the fallback fired.
//
// smoothop:locked mu
func (r *Runtime) admissionTrace(id, service string, asOf time.Time, trainWeeks int) (timeseries.Series, bool, error) {
	tr, q, err := r.residentTrace(id, asOf, trainWeeks)
	if err != nil {
		return timeseries.Series{}, false, fmt.Errorf("core: admission trace for %q: %w", id, err)
	}
	r.quality[id] = q
	if !r.quarantines(tr, q) {
		return tr, false, nil
	}
	var peers, fleet []timeseries.Series
	for _, rid := range r.tree.AllInstances() {
		if r.view.filled[rid] {
			continue
		}
		fleet = append(fleet, r.view.traces[rid])
		if r.services[rid] == service {
			peers = append(peers, r.view.traces[rid])
		}
	}
	ref, ok := referenceTrace(peers, fleet)
	if !ok {
		return timeseries.Series{}, false, ErrAllQuarantined
	}
	obsFallbackTraces.Inc()
	return ref, true, nil
}
