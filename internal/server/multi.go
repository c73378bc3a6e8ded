package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"priview/internal/admission"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// Resolution errors — the vocabulary a release registry speaks to the
// multi-tenant router. The router maps them onto HTTP statuses:
//
//	ErrUnknownRelease → 404
//	UnavailableError  → 503 + Retry-After (breaker open, load backoff)
//	SaturatedError    → 429 + Retry-After (per-release bulkhead full)
//	RateLimitedError  → 429 + Retry-After (per-tenant token bucket dry)
var ErrUnknownRelease = errors.New("server: unknown release")

// UnavailableError reports that a release exists but cannot serve right
// now — its circuit breaker is open, its loader is in backoff, or it is
// half-open with a probe already in flight. RetryAfter tells clients
// when trying again might succeed.
type UnavailableError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("server: release unavailable: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// SaturatedError reports that the release's own inflight bulkhead is
// full. It is deliberately distinct from global shedding: one hot
// tenant saturates itself, not the fleet.
type SaturatedError struct {
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("server: release at capacity (retry after %v)", e.RetryAfter)
}

// RateLimitedError reports that the tenant's token-bucket rate limit
// refused the request. Like saturation it maps to 429, but it is a
// different condition — saturation is too much concurrency right now,
// rate limiting is too many requests over the refill window — and
// RetryAfter here says when the bucket will hold a token again.
type RateLimitedError struct {
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("server: release rate limited (retry after %v)", e.RetryAfter)
}

// Lease is an admitted, loaded release: a Querier plus the obligation
// to Close it, which returns the release's bulkhead permit. Queries
// issued through the lease keep answering from the synopsis resolved at
// acquire time even if the release is reloaded or evicted mid-query.
type Lease interface {
	Querier
	Close()
}

// Resolver is the registry surface the multi-tenant router serves from.
// internal/registry implements it.
type Resolver interface {
	// Acquire resolves name to a loaded release and takes one bulkhead
	// permit, lazily loading the release on first hit. The returned
	// Lease must be Closed. Errors are the resolution vocabulary above.
	Acquire(ctx context.Context, name string) (Lease, error)
	// ReleaseStats returns the release's observability snapshot (an
	// arbitrary JSON-marshalable value) without loading or touching it.
	ReleaseStats(name string) (any, error)
	// Releases lists the currently registered release names, sorted.
	Releases() []string
	// Ready reports whether the registry has completed its initial
	// scan — the /readyz gate.
	Ready() bool
}

// Multi is the HTTP front: named-release routes
// (/v1/{release}/marginal|marginals|info|stats) resolved through a
// Resolver, with the legacy unprefixed routes aliasing a configured
// default release. The router owns the failure-model middleware (panic
// recovery, admission control, per-request deadline); the per-release
// bulkheads, breakers and quotas live behind Acquire.
type Multi struct {
	res      Resolver
	def      string // default release for legacy routes; "" = none
	mux      *http.ServeMux
	opt      Options
	ov       *overload
	tel      *Metrics
	draining atomic.Bool
}

// NewMulti returns a router serving every release res resolves.
// defaultRelease, when non-empty, is the release the legacy unprefixed
// /v1/marginal, /v1/marginals, /v1/info and /v1/stats routes alias.
func NewMulti(res Resolver, defaultRelease string, opt Options) *Multi {
	if opt.MaxK <= 0 {
		opt.MaxK = 12
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 256
	}
	if opt.Logger == nil {
		opt.Logger = log.Default()
	}
	reg := opt.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Multi{res: res, def: defaultRelease, mux: http.NewServeMux(), opt: opt, ov: newOverload(opt), tel: NewMetrics(reg)}
	// Instrumentation precedes traffic: the handle swaps are
	// deliberately unsynchronized.
	m.tel.instrumentOverload(m.ov)
	// Every route gets panic recovery. Routes are instrumented under
	// their registered patterns, so the route label stays a closed set —
	// release names never reach it (they label the registry's
	// per-release series instead). Legacy aliases get their own
	// instrumented wrapper under their own pattern; the outermost
	// instrumentation counts recovered panics as the 500s they answer.
	// /metrics is deliberately uninstrumented: a scrape should not
	// perturb the series it reads.
	route := func(pattern string, h http.Handler) {
		m.mux.Handle(pattern, m.tel.instrumented(pattern, h))
	}
	m.mux.Handle("/metrics", recovered(opt.Logger, reg.Handler()))
	route("/healthz", recovered(opt.Logger, http.HandlerFunc(m.handleHealth)))
	route("/readyz", recovered(opt.Logger, http.HandlerFunc(m.handleReady)))
	route("/v1/releases", recovered(opt.Logger, http.HandlerFunc(m.handleReleases)))
	// The marginal routes are admitted before the deadline is armed: a
	// request refused for capacity should not consume any of its
	// reconstruction budget. The batch route's deadline *gate* (as
	// opposed to the armed timeout) runs inside its handler, size-scaled
	// to the parsed batch.
	marginal := recovered(opt.Logger, m.admitted(m.ov.deadlined(http.HandlerFunc(m.handleMarginal))))
	marginals := recovered(opt.Logger, m.admitted(m.ov.deadlined(http.HandlerFunc(m.handleMarginals))))
	info := recovered(opt.Logger, http.HandlerFunc(m.handleInfo))
	stats := recovered(opt.Logger, http.HandlerFunc(m.handleStats))
	for _, r := range []struct {
		name string
		h    http.Handler
	}{{"marginal", marginal}, {"marginals", marginals}, {"info", info}, {"stats", stats}} {
		route("/v1/{release}/"+r.name, r.h)
		route("/v1/"+r.name, r.h)
	}
	return m
}

// Metrics exposes the router's telemetry handle set (the same object
// GET /metrics serves) so owners can wire the release registry and
// clients onto the shared scrape surface.
func (m *Multi) Metrics() *Metrics { return m.tel }

// ServeHTTP implements http.Handler.
func (m *Multi) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// SetDraining flips the draining state: while draining, /healthz and
// /readyz answer 503 so load balancers take the instance out of
// rotation before Shutdown closes the listener. Safe for concurrent use.
func (m *Multi) SetDraining(v bool) { m.draining.Store(v) }

// Draining reports whether the router is refusing its health probe.
func (m *Multi) Draining() bool { return m.draining.Load() }

// admitted gates h behind the adaptive admission controller, or returns
// it ungated when Options.Admission is unset.
func (m *Multi) admitted(h http.Handler) http.Handler {
	if m.ov.ctrl == nil {
		return h
	}
	return m.ov.admitted(h, m.tryCacheOnly)
}

// AdmissionStats snapshots the router-wide overload-control counters
// (the same object /v1/releases serves), or nil when no overload
// machinery has engaged. For operator logging.
func (m *Multi) AdmissionStats() *admission.Stats { return m.ov.stats() }

// releaseName resolves which release a request addresses: the {release}
// path segment, or the configured default for legacy routes. ok is
// false for a legacy route with no default configured.
func (m *Multi) releaseName(r *http.Request) (string, bool) {
	if name := r.PathValue("release"); name != "" {
		return name, true
	}
	return m.def, m.def != ""
}

// tryCacheOnly is the brownout hook: resolve the release and answer the
// marginal from its memoized cache alone. Resolution failures return
// false — the normal path owns the 404/503/429 mapping, and a request
// that would fail resolution must fail identically in and out of
// brownout.
func (m *Multi) tryCacheOnly(w http.ResponseWriter, r *http.Request) bool {
	name, ok := m.releaseName(r)
	if !ok {
		return false
	}
	lease, err := m.res.Acquire(r.Context(), name)
	if err != nil {
		return false
	}
	defer lease.Close()
	return m.ov.serveCacheOnly(w, r, lease)
}

// writeResolveError maps a Resolver error onto the HTTP failure model.
func (m *Multi) writeResolveError(w http.ResponseWriter, r *http.Request, err error) {
	var unavailable *UnavailableError
	var saturated *SaturatedError
	var ratelimited *RateLimitedError
	switch {
	case errors.Is(err, ErrUnknownRelease):
		http.Error(w, "unknown release", http.StatusNotFound)
	case errors.As(err, &unavailable):
		w.Header().Set("Retry-After", retryAfterSeconds(unavailable.RetryAfter))
		http.Error(w, "release unavailable: "+unavailable.Reason, http.StatusServiceUnavailable)
	case errors.As(err, &saturated):
		w.Header().Set("Retry-After", retryAfterSeconds(saturated.RetryAfter))
		http.Error(w, "release at capacity, retry later", http.StatusTooManyRequests)
	case errors.As(err, &ratelimited):
		w.Header().Set("Retry-After", retryAfterSeconds(ratelimited.RetryAfter))
		http.Error(w, "release rate limited, retry later", http.StatusTooManyRequests)
	case errors.Is(err, reconstruct.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, context.Canceled):
		w.WriteHeader(statusClientClosedRequest)
	default:
		m.opt.Logger.Printf("server: resolving release for %s: %v", r.URL.Path, err)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

func (m *Multi) handleMarginal(w http.ResponseWriter, r *http.Request) {
	name, ok := m.releaseName(r)
	if !ok {
		http.Error(w, "no default release configured; use /v1/{release}/marginal", http.StatusNotFound)
		return
	}
	lease, err := m.res.Acquire(r.Context(), name)
	if err != nil {
		m.writeResolveError(w, r, err)
		return
	}
	defer lease.Close()
	serveMarginal(w, r, lease, m.env())
}

func (m *Multi) env() serveEnv {
	return serveEnv{maxK: m.opt.MaxK, logger: m.opt.Logger, svc: m.ov.svc, tel: m.tel, slow: m.opt.SlowQuery}
}

func (m *Multi) handleMarginals(w http.ResponseWriter, r *http.Request) {
	name, ok := m.releaseName(r)
	if !ok {
		http.Error(w, "no default release configured; use /v1/{release}/marginals", http.StatusNotFound)
		return
	}
	lease, err := m.res.Acquire(r.Context(), name)
	if err != nil {
		m.writeResolveError(w, r, err)
		return
	}
	defer lease.Close()
	serveMarginals(w, r, lease, batchEnv{
		serveEnv: m.env(),
		ov:       m.ov,
		maxBatch: m.opt.MaxBatch,
		workers:  m.opt.BatchWorkers,
	})
}

func (m *Multi) handleInfo(w http.ResponseWriter, r *http.Request) {
	name, ok := m.releaseName(r)
	if !ok {
		http.Error(w, "no default release configured; use /v1/{release}/info", http.StatusNotFound)
		return
	}
	lease, err := m.res.Acquire(r.Context(), name)
	if err != nil {
		m.writeResolveError(w, r, err)
		return
	}
	defer lease.Close()
	serveInfo(w, r, lease, m.opt.MaxK, m.opt.Logger)
}

// handleStats serves the per-release observability snapshot. Unlike
// marginal and info it never loads or touches the release — stats on a
// cold, broken or saturated tenant must always answer, that being the
// whole point of the counters.
func (m *Multi) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name, ok := m.releaseName(r)
	if !ok {
		http.Error(w, "no default release configured; use /v1/{release}/stats", http.StatusNotFound)
		return
	}
	stats, err := m.res.ReleaseStats(name)
	if err != nil {
		m.writeResolveError(w, r, err)
		return
	}
	writeJSON(w, m.opt.Logger, stats)
}

// releasesResponse lists the registered releases plus the router-wide
// admission snapshot (omitted when no admission control is configured
// and nothing has engaged it).
// The admission stats live here rather than on the per-release stats
// route because the controller gates the whole router, not one tenant.
type releasesResponse struct {
	Default   string           `json:"default,omitempty"`
	Releases  []string         `json:"releases"`
	Admission *admission.Stats `json:"admission,omitempty"`
}

func (m *Multi) handleReleases(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	names := m.res.Releases()
	if names == nil {
		names = []string{}
	}
	writeJSON(w, m.opt.Logger, releasesResponse{Default: m.def, Releases: names, Admission: m.ov.stats()})
}

func (m *Multi) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if m.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(m.opt.RetryAfter))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	//lint:ignore errdiscard health-probe response; a client that hung up cannot be told about it
	fmt.Fprintln(w, "ok")
}

// handleReady answers 200 only when the registry has completed its
// initial scan and the instance is not draining — the gate a load
// balancer checks before routing traffic to a fresh replica, distinct
// from the liveness probe (/healthz) that merely proves the process
// responds.
func (m *Multi) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if m.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(m.opt.RetryAfter))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !m.res.Ready() {
		w.Header().Set("Retry-After", retryAfterSeconds(m.opt.RetryAfter))
		http.Error(w, "registry scan incomplete", http.StatusServiceUnavailable)
		return
	}
	//lint:ignore errdiscard health-probe response; a client that hung up cannot be told about it
	fmt.Fprintln(w, "ready")
}
