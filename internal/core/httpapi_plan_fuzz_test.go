package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

// FuzzPlanDecoder posts arbitrary bodies to POST /v1/plan on a bootstrapped
// runtime. Whatever the body, the strict decoder and the planner must answer
// without a panic or a 5xx, and a 200 that applied a trip must report an end
// no earlier than its start.
func FuzzPlanDecoder(f *testing.F) {
	rt, placed, _, trainEnd := admissionFixture(f)
	clock := func() time.Time { return trainEnd }
	h := testHandler(f, rt, clock, obs.NewWithClock(clock))
	leaf, root, svc := rt.Tree().Leaves()[0].Name, rt.Tree().Name, placed[0].Service
	inWindow := trainEnd.Add(-24 * time.Hour).Format(time.RFC3339)
	for _, seed := range []string{
		`{"kind":"replace_service","service":"` + svc + `","policy":"random","seed":3}`,
		`{"kind":"add_instances","archetype":"` + svc + `","count":2}`,
		`{"kind":"add_instances","archetype":"` + svc + `","count":1000000000}`,
		`{"kind":"trip_breaker","node":"` + leaf + `","budget_fraction":0.5}`,
		`{"kind":"trip_breaker","node":"` + root + `","start":"` + inWindow + `","duration_seconds":3600,"budget_fraction":0.1}`,
		`{"kind":"trip_breaker","node":"` + leaf + `","start":"` + inWindow + `","duration_seconds":1e10}`,
		`{"kind":"explode"}`,
		`{}`,
		`{"kind":"trip_breaker"} trailing`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/plan %q = %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var res plan.Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("200 body is not a plan result: %v", err)
		}
		if tr := res.Trip; tr != nil && tr.Applied && tr.Until.Before(tr.Start) {
			t.Fatalf("POST /v1/plan %q applied a trip that ends before it starts: %+v", body, tr)
		}
	})
}
