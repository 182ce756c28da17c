package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
)

// TestWriteFailureSharedTable pins what one failureCodes table means for
// the routes that used to map errors separately: a placement or powertree
// sentinel wrapped by a plan query gets the status it gets on
// /v1/instances, a plan sentinel wrapped by an admission gets the plan
// status, and anything unmapped stays 500 "internal".
func TestWriteFailureSharedTable(t *testing.T) {
	api := &httpAPI{errors: obs.New().Counter("failures_total", "test")}
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("plan: re-placing %q: %w", "web-1", placement.ErrAlreadyAdmitted), http.StatusConflict, "already_admitted"},
		{fmt.Errorf("plan: admitting %q: %w", "plan~web~000000", powertree.ErrBadDimension), http.StatusBadRequest, "bad_request"},
		{fmt.Errorf("core: admit: %w", plan.ErrUnknownNode), http.StatusNotFound, "unknown_node"},
		{fmt.Errorf("plan: %w", ErrNotPlaced), http.StatusConflict, "not_placed"},
		{errors.New("plan: summarize failed"), http.StatusInternalServerError, "internal"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		api.writeFailure(rec, c.err)
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%v: decoding envelope: %v", c.err, err)
		}
		if rec.Code != c.status || env.Error.Code != c.code || env.Error.Message != c.err.Error() {
			t.Errorf("%v: got %d %q %q, want %d %q", c.err, rec.Code, env.Error.Code, env.Error.Message, c.status, c.code)
		}
		if rec.Header().Get("Retry-After") != "" {
			t.Errorf("%v: Retry-After set on a non-overload failure", c.err)
		}
	}
}
