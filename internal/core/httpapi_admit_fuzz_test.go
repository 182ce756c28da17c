package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzAdmitDecoder posts arbitrary bodies to POST /v1/instances on a
// bootstrapped runtime. Whatever the body, the answer is never a 5xx, every
// refusal carries the error envelope, and every admission retires cleanly,
// which leaves the runtime as the next input expects it.
func FuzzAdmitDecoder(f *testing.F) {
	rt, placed, held, trainEnd := admissionFixture(f)
	clock := func() time.Time { return trainEnd }
	h := testHandler(f, rt, clock, obs.NewWithClock(clock))
	arrival, svc := held[0].ID, placed[0].Service
	for _, seed := range []string{
		`{"id":"` + arrival + `","service":"` + svc + `"}`,
		`{"id":"never-reported","service":"` + svc + `"}`,
		`{"id":"` + arrival + `","service":"` + svc + `","train_weeks":15000}`,
		`{"id":"` + arrival + `","service":"` + svc + `","train_weeks":9223372036854775807}`,
		`{"id":"` + arrival + `","service":"` + svc + `","as_of":"2200-01-01T00:00:00Z"}`,
		`{"id":"` + arrival + `","service":"` + svc + `","as_of":"0001-01-01T00:00:00Z","train_weeks":4}`,
		`{"id":"` + arrival + `","service":"` + svc + `","demands":{"gpu":-1}}`,
		`{"id":"` + arrival + `","service":"` + svc + `","demands":{"gpu":"NaN"}}`,
		`{"id":"` + arrival + `","service":"` + svc + `","demands":{"power":5}}`,
		`{"id":"` + placed[1].ID + `","service":"` + svc + `"}`,
		`{"id":"..","service":"` + svc + `"}`,
		`{"id":"a/b","service":"` + svc + `"} trailing`,
		`{"id":"a/b","service":"` + svc + `","extra":1}`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/instances", strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST /v1/instances %q = %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("POST /v1/instances %q = %d without the error envelope: %s", body, rec.Code, rec.Body)
			}
			return
		}
		var admitted instanceView
		if err := json.Unmarshal(rec.Body.Bytes(), &admitted); err != nil {
			t.Fatalf("201 body is not an instance: %v", err)
		}
		// A segment of only dots would be removed as a dot-segment, so it is
		// percent-encoded whole.
		seg := url.PathEscape(admitted.ID)
		if strings.Trim(seg, ".") == "" {
			seg = strings.Repeat("%2E", len(seg))
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/instances/"+seg, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("retiring %q admitted by %q = %d: %s", admitted.ID, body, rec.Code, rec.Body)
		}
	})
}
