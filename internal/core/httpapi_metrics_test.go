package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// metricsFixture builds one handler over a fresh runtime and a fresh
// registry, so the exposition reflects only this handler's activity.
func metricsFixture(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	rt, _, _, _ := runtimeFixture(t)
	clock := func() time.Time { return time.Date(2016, 8, 8, 0, 0, 0, 0, time.UTC) }
	reg := obs.NewWithClock(clock)
	srv := httptest.NewServer(testHandler(t, rt, clock, reg))
	t.Cleanup(srv.Close)
	return srv, reg
}

// TestHTTPMetricsStableAcrossRuns builds two identical handler+registry
// pairs, performs the same single scrape against each, and requires
// byte-identical /v1/metrics bodies: sorted names, deterministic values.
func TestHTTPMetricsStableAcrossRuns(t *testing.T) {
	scrape := func() string {
		srv, _ := metricsFixture(t)
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/metrics status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
			t.Fatalf("Content-Type = %q, want %q", got, obs.ContentType)
		}
		return string(body)
	}
	a, b := scrape(), scrape()
	if a != b {
		t.Fatalf("two identical runs produced different /v1/metrics output:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE smoothop_http_requests_total counter",
		"smoothop_http_requests_total 1",
		"smoothop_http_errors_total 0",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("/v1/metrics missing %q:\n%s", want, a)
		}
	}
	// Names must appear in sorted order.
	var last string
	for _, line := range strings.Split(a, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if name < last {
			t.Fatalf("metric %q served after %q: output not sorted", name, last)
		}
		last = name
	}
}

// TestHTTPMethodRejection checks the operational-bugfix contract: every
// route answers non-GET with 405, an Allow header, and a bumped error
// counter.
func TestHTTPMethodRejection(t *testing.T) {
	srv, reg := metricsFixture(t)
	for _, path := range []string{"/v1/health", "/v1/status", "/v1/tree", "/v1/history", "/v1/metrics"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != http.MethodGet {
			t.Errorf("POST %s Allow = %q, want GET", path, got)
		}
	}
	if got := reg.Counter("smoothop_http_errors_total", "").Value(); got != 5 {
		t.Errorf("error counter = %d, want 5 (one per rejected POST)", got)
	}
	if got := reg.Counter("smoothop_http_requests_total", "").Value(); got != 5 {
		t.Errorf("request counter = %d, want 5", got)
	}
}
