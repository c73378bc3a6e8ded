package registry_test

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"priview/internal/admission"
	"priview/internal/registry"
	"priview/internal/server"
)

// The JSON stats surfaces are scraped by deployed tooling; these
// goldens pin the exact zero-state bytes of the per-release stats route
// and the release listing on a registry-backed router, with and without
// adaptive admission. Counter values vary with traffic; field order and
// presence must not.
const (
	// A registered, never-loaded release. Admission never appears here:
	// the controller gates the whole router, not one tenant.
	releaseStatsGolden = "{\"name\":\"alpha\",\"loaded\":false,\"breaker\":\"closed\",\"consecutive_failures\":0," +
		"\"breaker_trips\":0,\"breaker_rejects\":0,\"backoff_rejects\":0,\"half_open_probes\":0," +
		"\"load_attempts\":0,\"load_failures\":0,\"reloads\":0,\"reload_failures\":0,\"shed\":0," +
		"\"rate_limited\":0,\"weight\":1,\"evictions\":0,\"readmits\":0,\"inflight_limit\":32,\"inflight\":0," +
		"\"cache\":false,\"cache_stats\":{\"hits\":0,\"misses\":0,\"evictions\":0,\"coalesced\":0,\"entries\":0,\"bytes\":0}}\n"
	// Without an admission controller the admission block is omitted
	// entirely, not emitted as null or zero.
	releasesGolden = "{\"default\":\"alpha\",\"releases\":[\"alpha\"]}\n"
	// With the controller, its zero-state snapshot rides the listing.
	releasesAdmissionGolden = "{\"default\":\"alpha\",\"releases\":[\"alpha\"]," +
		"\"admission\":{\"limit\":16,\"inflight\":0,\"queue_depth\":0,\"admitted\":0,\"queued\":0,\"shed\":0," +
		"\"codel_dropped\":0,\"deadline_rejected\":0,\"brownout_served\":0,\"brownout_rejected\":0," +
		"\"brownout_active\":false,\"short_latency_ms\":0,\"long_latency_ms\":0}}\n"
)

func TestRegistryStatsJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		admission *admission.Config
		releases  string
	}{
		{"bare", nil, releasesGolden},
		{"admission", &admission.Config{}, releasesAdmissionGolden},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			saveRelease(t, root, "alpha", 1)
			reg, err := registry.New(root, registry.Options{Logger: log.New(io.Discard, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			if err := reg.Reconcile(context.Background()); err != nil {
				t.Fatal(err)
			}
			m := server.NewMulti(reg, "alpha", server.Options{Admission: tc.admission, Logger: log.New(io.Discard, "", 0)})
			for path, want := range map[string]string{
				"/v1/alpha/stats": releaseStatsGolden,
				"/v1/releases":    tc.releases,
			} {
				rec := httptest.NewRecorder()
				m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
				}
				if got := rec.Body.String(); got != want {
					t.Errorf("%s changed:\n got  %q\n want %q", path, got, want)
				}
			}
		})
	}
}
