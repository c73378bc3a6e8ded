package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/qcache"
)

// fakeLease wraps a Querier and counts Close calls.
type fakeLease struct {
	Querier
	closed atomic.Int64
}

func (l *fakeLease) Close() { l.closed.Add(1) }

// The optional query surfaces are forwarded explicitly, as the
// registry's lease does: an embedded interface value does not surface
// them to type assertions on the lease.

func (l *fakeLease) QueryCached(attrs []int, method core.ReconstructMethod) (*marginal.Table, bool) {
	if cq, ok := l.Querier.(CacheOnlyQuerier); ok {
		return cq.QueryCached(attrs, method)
	}
	return nil, false
}

func (l *fakeLease) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	return queryBatch(ctx, l.Querier, reqs, opt)
}

func (l *fakeLease) DefaultMethod() core.ReconstructMethod { return defaultMethod(l.Querier) }

// fakeStats mirrors the cache fields of the registry's per-release
// stats object.
type fakeStats struct {
	Name       string       `json:"name"`
	Cache      bool         `json:"cache"`
	CacheStats qcache.Stats `json:"cache_stats"`
}

// fakeResolver resolves a fixed map of releases, optionally failing
// some with a configured error.
type fakeResolver struct {
	leases   map[string]*fakeLease
	errs     map[string]error
	ready    bool
	acquires atomic.Int64
}

func (f *fakeResolver) Acquire(ctx context.Context, name string) (Lease, error) {
	f.acquires.Add(1)
	if err, ok := f.errs[name]; ok {
		return nil, err
	}
	if l, ok := f.leases[name]; ok {
		return l, nil
	}
	return nil, ErrUnknownRelease
}

func (f *fakeResolver) ReleaseStats(name string) (any, error) {
	if l, ok := f.leases[name]; ok {
		st := fakeStats{Name: name}
		if cq, ok := l.Querier.(*CachedQuerier); ok {
			st.CacheStats, st.Cache = cq.CacheStats()
		}
		return st, nil
	}
	if _, ok := f.errs[name]; ok {
		return fakeStats{Name: name}, nil
	}
	return nil, ErrUnknownRelease
}

func (f *fakeResolver) Releases() []string {
	var names []string
	for n := range f.leases {
		names = append(names, n)
	}
	return names
}

func (f *fakeResolver) Ready() bool { return f.ready }

func newMultiFixture(t *testing.T) (*Multi, *fakeResolver, *fakeLease) {
	t.Helper()
	_, _, syn := cachedTestSetup(t)
	lease := &fakeLease{Querier: syn}
	res := &fakeResolver{
		leases: map[string]*fakeLease{"adult-eps1": lease},
		errs:   map[string]error{},
		ready:  true,
	}
	m := NewMulti(res, "adult-eps1", Options{MaxK: 6, Logger: log.New(io.Discard, "", 0)})
	return m, res, lease
}

func multiGet(t *testing.T, m *Multi, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestMultiRoutesNamedAndLegacy(t *testing.T) {
	m, _, lease := newMultiFixture(t)
	for _, path := range []string{
		"/v1/adult-eps1/marginal?attrs=0,1",
		"/v1/marginal?attrs=0,1", // legacy alias → default release
		"/v1/adult-eps1/info",
		"/v1/info",
		"/v1/adult-eps1/stats",
		"/v1/stats",
	} {
		if rec := multiGet(t, m, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200: %s", path, rec.Code, rec.Body)
		}
	}
	// Every marginal/info acquire must have been paired with a Close.
	if got := lease.closed.Load(); got != 4 {
		t.Errorf("lease closed %d times, want 4 (stats never acquires)", got)
	}
}

func TestMultiUnknownRelease(t *testing.T) {
	m, _, _ := newMultiFixture(t)
	for _, path := range []string{
		"/v1/nonesuch/marginal?attrs=0,1",
		"/v1/nonesuch/info",
		"/v1/nonesuch/stats",
	} {
		if rec := multiGet(t, m, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
}

func TestMultiNoDefaultRelease(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	res := &fakeResolver{
		leases: map[string]*fakeLease{"a": {Querier: syn}},
		ready:  true,
	}
	m := NewMulti(res, "", Options{MaxK: 6, Logger: log.New(io.Discard, "", 0)})
	if rec := multiGet(t, m, "/v1/marginal?attrs=0,1"); rec.Code != http.StatusNotFound {
		t.Errorf("legacy route without default = %d, want 404", rec.Code)
	}
	if rec := multiGet(t, m, "/v1/a/marginal?attrs=0,1"); rec.Code != http.StatusOK {
		t.Errorf("named route = %d, want 200", rec.Code)
	}
}

func TestMultiResolutionErrorMapping(t *testing.T) {
	m, res, _ := newMultiFixture(t)
	res.errs["tripped"] = &UnavailableError{Reason: "circuit breaker open", RetryAfter: 7 * time.Second}
	res.errs["hot"] = &SaturatedError{RetryAfter: 2 * time.Second}

	rec := multiGet(t, m, "/v1/tripped/marginal?attrs=0,1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("breaker-open release = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("breaker-open Retry-After = %q, want \"7\"", got)
	}
	if !strings.Contains(rec.Body.String(), "circuit breaker open") {
		t.Errorf("503 body %q does not carry the reason", rec.Body.String())
	}

	rec = multiGet(t, m, "/v1/hot/marginal?attrs=0,1")
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated release = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("saturated Retry-After = %q, want \"2\"", got)
	}
}

func TestMultiReadyz(t *testing.T) {
	m, res, _ := newMultiFixture(t)
	if rec := multiGet(t, m, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz with scanned registry = %d, want 200", rec.Code)
	}
	res.ready = false
	rec := multiGet(t, m, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before initial scan = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("readyz 503 carries no Retry-After")
	}
	res.ready = true
	m.SetDraining(true)
	rec = multiGet(t, m, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", rec.Code)
	}
	// Liveness stays distinct: healthz also refuses while draining, with
	// the same backoff hint.
	rec = multiGet(t, m, "/healthz")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("healthz while draining = %d (Retry-After %q), want 503 with hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestMultiReleasesEndpoint(t *testing.T) {
	m, _, _ := newMultiFixture(t)
	rec := multiGet(t, m, "/v1/releases")
	if rec.Code != http.StatusOK {
		t.Fatalf("releases = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "adult-eps1") || !strings.Contains(body, `"default"`) {
		t.Errorf("releases body %q missing release list or default", body)
	}
}

// TestMultiGlobalShedding proves the router-level admission controller
// is the backstop above per-release bulkheads: with concurrency 1 and a
// queue of 1 full, the next concurrent request sheds with 429 +
// Retry-After.
func TestMultiGlobalShedding(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	gate := make(chan struct{})
	blocking := &fakeLease{Querier: &gatedQuerier{Querier: syn, gate: gate}}
	res := &fakeResolver{leases: map[string]*fakeLease{"a": blocking}, ready: true}
	m := NewMulti(res, "", Options{
		MaxK:   6,
		Logger: log.New(io.Discard, "", 0),
		// The hour-long target keeps CoDel from shedding the queued
		// request: only the full queue sheds.
		Admission: &admission.Config{TargetDelay: time.Hour, InitialLimit: 1, MinLimit: 1, MaxLimit: 1, MaxQueue: 1},
	})
	ts := httptest.NewServer(m)
	defer ts.Close()

	errc := make(chan error, 2)
	bgGet := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}
	go bgGet("/v1/a/marginal?attrs=0,1")
	// Wait until the first request is parked inside the querier, holding
	// the only slot, then until the second waits in the queue.
	gate <- struct{}{}
	go bgGet("/v1/a/marginal?attrs=1,2")
	for m.AdmissionStats().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/a/marginal?attrs=2,3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("request past the full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}
	gate <- struct{}{} // release the parked request
	gate <- struct{}{} // the queued one enters the querier…
	gate <- struct{}{} // …and is released
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// gatedQuerier parks each query between two receives from gate: the
// first send proves the request is inside (holding its inflight slot),
// the second releases it.
type gatedQuerier struct {
	Querier
	gate chan struct{}
}

func (g *gatedQuerier) QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error) {
	<-g.gate
	<-g.gate
	return g.Querier.QueryMethodContext(ctx, attrs, method)
}
