package registry_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"priview"
	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
)

// buildSyn returns a small synopsis with seed-dependent content.
func buildSyn(t *testing.T, seed int64) *core.Synopsis {
	t.Helper()
	const d = 6
	records := make([]uint64, 200)
	for i := range records {
		records[i] = uint64(i*2654435761) & ((1 << d) - 1)
	}
	data := priview.NewDataset(d, records)
	plan := priview.PlanDesign(d, data.Len(), 1.0, 1)
	return priview.Build(data, priview.Config{Epsilon: 1.0, Design: plan.Design}, seed)
}

// saveRelease creates root/name as a snapshot store holding one
// freshly built synopsis, returning the store for later saves.
func saveRelease(t *testing.T, root, name string, seed int64) *snapshot.Store {
	t.Helper()
	st, err := snapshot.NewStore(filepath.Join(root, name), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, seed)); err != nil {
		t.Fatal(err)
	}
	return st
}

// fakeClock is an injectable deterministic clock: breaker cooldowns
// and backoffs elapse only when the test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// flakyLoader fails on demand; otherwise it defers to the store.
type flakyLoader struct {
	mu    sync.Mutex
	fail  bool
	calls int
}

func (l *flakyLoader) setFail(v bool) {
	l.mu.Lock()
	l.fail = v
	l.mu.Unlock()
}

func (l *flakyLoader) Load(_ context.Context, _ string, st *snapshot.Store) (*snapshot.LoadResult, error) {
	l.mu.Lock()
	l.calls++
	fail := l.fail
	l.mu.Unlock()
	if fail {
		return nil, errors.New("injected load failure")
	}
	return st.Load()
}

func quietOpts() registry.Options {
	return registry.Options{Logger: log.New(io.Discard, "", 0)}
}

func stats(t *testing.T, reg *registry.Registry, name string) registry.ReleaseStats {
	t.Helper()
	v, err := reg.ReleaseStats(name)
	if err != nil {
		t.Fatalf("ReleaseStats(%s): %v", name, err)
	}
	return v.(registry.ReleaseStats)
}

func mustQuery(t *testing.T, lease server.Lease) {
	t.Helper()
	if _, err := lease.QueryMethodContext(context.Background(), []int{0, 1}, core.CME); err != nil {
		t.Fatalf("query through lease: %v", err)
	}
}

func TestLazyLoadSingleflight(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	started := make(chan struct{})
	unblock := make(chan struct{})
	loader := &gateLoader{started: started, unblock: unblock}
	reg, err := registry.New(root, registry.Options{Loader: loader, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lease, err := reg.Acquire(context.Background(), "alpha")
			if err != nil {
				errs[i] = err
				return
			}
			defer lease.Close()
			_, errs[i] = lease.QueryMethodContext(context.Background(), []int{0, 1}, core.CME)
		}(i)
	}
	<-started       // one leader is inside the loader
	close(unblock)  // let it finish; waiters share the result
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if got := loader.loads(); got != 1 {
		t.Errorf("loader ran %d times, want 1 (singleflight)", got)
	}
	if s := stats(t, reg, "alpha"); s.LoadAttempts != 1 || !s.Loaded {
		t.Errorf("stats = attempts %d loaded %v, want 1 true", s.LoadAttempts, s.Loaded)
	}
}

// gateLoader signals when a load starts and blocks it until released.
type gateLoader struct {
	started chan struct{}
	unblock chan struct{}
	mu      sync.Mutex
	calls   int
	once    sync.Once
}

func (l *gateLoader) loads() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

func (l *gateLoader) Load(_ context.Context, _ string, st *snapshot.Store) (*snapshot.LoadResult, error) {
	l.mu.Lock()
	l.calls++
	l.mu.Unlock()
	l.once.Do(func() { close(l.started) })
	<-l.unblock
	return st.Load()
}

func TestUnknownAndInvalidReleaseNames(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, name := range []string{"nonesuch", "../alpha", ".hidden", "a/b", ""} {
		if _, err := reg.Acquire(context.Background(), name); !errors.Is(err, server.ErrUnknownRelease) {
			t.Errorf("Acquire(%q) = %v, want ErrUnknownRelease", name, err)
		}
	}
	if _, err := reg.ReleaseStats("nonesuch"); !errors.Is(err, server.ErrUnknownRelease) {
		t.Errorf("ReleaseStats(nonesuch) = %v, want ErrUnknownRelease", err)
	}
}

// TestLazyDiscovery proves a directory dropped into the root serves on
// first query, before any reconcile runs.
func TestLazyDiscovery(t *testing.T) {
	root := t.TempDir()
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	saveRelease(t, root, "late", 3)
	lease, err := reg.Acquire(context.Background(), "late")
	if err != nil {
		t.Fatalf("Acquire after drop-in: %v", err)
	}
	defer lease.Close()
	mustQuery(t, lease)
}

func TestBulkheadSheds(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	opt := quietOpts()
	opt.MaxInflight = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	held, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var saturated *server.SaturatedError
	if _, err := reg.Acquire(context.Background(), "alpha"); !errors.As(err, &saturated) {
		t.Fatalf("second acquire = %v, want SaturatedError", err)
	}
	if saturated.RetryAfter <= 0 {
		t.Error("SaturatedError carries no Retry-After hint")
	}
	if s := stats(t, reg, "alpha"); s.Shed != 1 || s.Inflight != 1 || s.InflightLimit != 1 {
		t.Errorf("stats = shed %d inflight %d/%d, want 1 1/1", s.Shed, s.Inflight, s.InflightLimit)
	}
	held.Close()
	held.Close() // idempotent: a double-close must not free a second permit
	lease, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	lease.Close()
}

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	clock := newFakeClock()
	loader := &flakyLoader{fail: true}
	opt := quietOpts()
	opt.Loader = loader
	opt.Now = clock.Now
	opt.BreakerThreshold = 2
	opt.BreakerCooldown = 10 * time.Second
	opt.BackoffBase = 100 * time.Millisecond
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	var unavailable *server.UnavailableError
	// Strike one: closed, in backoff.
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("first failing acquire = %v, want UnavailableError", err)
	}
	if s := stats(t, reg, "alpha"); s.Breaker != "closed" || s.ConsecutiveFailures != 1 {
		t.Fatalf("after one strike: breaker %q fails %d, want closed 1", s.Breaker, s.ConsecutiveFailures)
	}
	// Strike two trips the breaker (advance past the backoff first).
	clock.Advance(time.Second)
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("second failing acquire = %v, want UnavailableError", err)
	}
	s := stats(t, reg, "alpha")
	if s.Breaker != "open" || s.BreakerTrips != 1 {
		t.Fatalf("after threshold: breaker %q trips %d, want open 1", s.Breaker, s.BreakerTrips)
	}
	// Open: fast-fail without touching the loader.
	before := loader.calls
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("open-breaker acquire = %v, want UnavailableError", err)
	}
	if unavailable.RetryAfter <= 0 || unavailable.RetryAfter > opt.BreakerCooldown {
		t.Errorf("open-breaker Retry-After = %v, want in (0, %v]", unavailable.RetryAfter, opt.BreakerCooldown)
	}
	if loader.calls != before {
		t.Error("open breaker still reached the loader")
	}
	if s := stats(t, reg, "alpha"); s.BreakerRejects == 0 {
		t.Error("fast-fail did not count a breaker reject")
	}
	// Cooldown elapses; the probe runs, still fails, breaker re-opens.
	clock.Advance(opt.BreakerCooldown + time.Second)
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("probe acquire = %v, want UnavailableError", err)
	}
	s = stats(t, reg, "alpha")
	if s.HalfOpenProbes != 1 || s.Breaker != "open" || s.BreakerTrips != 2 {
		t.Fatalf("failed probe: probes %d breaker %q trips %d, want 1 open 2", s.HalfOpenProbes, s.Breaker, s.BreakerTrips)
	}
	// Repair the tenant; next probe recovers it.
	loader.setFail(false)
	clock.Advance(opt.BreakerCooldown + time.Second)
	lease, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatalf("recovery probe = %v, want success", err)
	}
	defer lease.Close()
	mustQuery(t, lease)
	s = stats(t, reg, "alpha")
	if s.Breaker != "closed" || !s.Loaded || s.ConsecutiveFailures != 0 {
		t.Errorf("after recovery: breaker %q loaded %v fails %d, want closed true 0", s.Breaker, s.Loaded, s.ConsecutiveFailures)
	}
	if s.HalfOpenProbes != 2 {
		t.Errorf("recovery probes = %d, want 2", s.HalfOpenProbes)
	}
}

func TestBackoffBetweenFailures(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	clock := newFakeClock()
	loader := &flakyLoader{fail: true}
	opt := quietOpts()
	opt.Loader = loader
	opt.Now = clock.Now
	opt.BreakerThreshold = 10 // keep the breaker out of the way
	opt.BackoffBase = 200 * time.Millisecond
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	var unavailable *server.UnavailableError
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("failing acquire = %v, want UnavailableError", err)
	}
	// Within the backoff window no load runs: fast reject.
	before := loader.calls
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("backoff acquire = %v, want UnavailableError", err)
	}
	if loader.calls != before {
		t.Error("backoff window still reached the loader")
	}
	if s := stats(t, reg, "alpha"); s.BackoffRejects != 1 {
		t.Errorf("backoff rejects = %d, want 1", s.BackoffRejects)
	}
	// Past the window the next real attempt runs (and fails again,
	// doubling the backoff).
	clock.Advance(time.Second)
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("post-backoff acquire = %v, want UnavailableError", err)
	}
	if loader.calls != before+1 {
		t.Errorf("loader calls = %d, want %d", loader.calls, before+1)
	}
}

func TestEvictionAndWarmHandoff(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	saveRelease(t, root, "beta", 2)
	opt := quietOpts()
	opt.MaxLoaded = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	lease, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, lease) // caches {0,1} in alpha's cache
	lease.Close()
	if s := stats(t, reg, "alpha"); s.CacheStats.Entries != 1 {
		t.Fatalf("alpha cache entries = %d, want 1", s.CacheStats.Entries)
	}

	// Loading beta exceeds MaxLoaded=1 and evicts cold alpha.
	lease, err = reg.Acquire(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, lease)
	lease.Close()
	s := stats(t, reg, "alpha")
	if s.Loaded || s.Evictions != 1 || s.Cache {
		t.Fatalf("alpha after beta load: loaded %v evictions %d cache %v, want false 1 false", s.Loaded, s.Evictions, s.Cache)
	}
	if used := reg.Budget().Used(); used == 0 {
		t.Error("budget reads zero with beta's cache populated")
	}

	// Re-admitting alpha replays its hot keys into the fresh cache.
	lease, err = reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	lease.Close()
	if s := stats(t, reg, "alpha"); s.Readmits != 1 || !s.Loaded {
		t.Fatalf("alpha re-admit: readmits %d loaded %v, want 1 true", s.Readmits, s.Loaded)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := stats(t, reg, "alpha"); s.CacheStats.Entries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warm handoff never replayed alpha's cached query")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReconcileAddRetire(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	saveRelease(t, root, "beta", 2)
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	if reg.Ready() {
		t.Error("Ready before the initial scan")
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if !reg.Ready() {
		t.Error("not Ready after Reconcile")
	}
	if got := fmt.Sprint(reg.Releases()); got != "[alpha beta]" {
		t.Fatalf("Releases = %v, want [alpha beta]", got)
	}

	// beta vanishes, gamma appears.
	if err := os.RemoveAll(filepath.Join(root, "beta")); err != nil {
		t.Fatal(err)
	}
	saveRelease(t, root, "gamma", 3)
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(reg.Releases()); got != "[alpha gamma]" {
		t.Fatalf("Releases after churn = %v, want [alpha gamma]", got)
	}
	if _, err := reg.Acquire(ctx, "beta"); !errors.Is(err, server.ErrUnknownRelease) {
		t.Errorf("retired release acquire = %v, want ErrUnknownRelease", err)
	}
}

func TestReconcileHotReload(t *testing.T) {
	root := t.TempDir()
	st := saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	lease, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, lease)
	lease.Close()
	served := stats(t, reg, "alpha").Snapshot

	// A new snapshot lands; the reconciler hot-reloads through
	// keep-last-good without any query seeing a cold release.
	if _, err := st.Save(buildSyn(t, 99)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	s := stats(t, reg, "alpha")
	if s.Reloads != 1 || !s.Loaded {
		t.Fatalf("after reload: reloads %d loaded %v, want 1 true", s.Reloads, s.Loaded)
	}
	if s.Snapshot == served || s.Snapshot == "" {
		t.Errorf("served snapshot %q did not advance past %q", s.Snapshot, served)
	}
	lease, err = reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Close()
	mustQuery(t, lease)
}

func TestTenantRateLimit(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	clock := newFakeClock()
	opt := quietOpts()
	opt.Now = clock.Now
	opt.TenantRPS = 1
	opt.TenantBurst = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	lease, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	lease.Close()
	// Burst spent; the bucket refills one token per second.
	var limited *server.RateLimitedError
	if _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &limited) {
		t.Fatalf("over-rate acquire = %v, want RateLimitedError", err)
	}
	if limited.RetryAfter <= 0 || limited.RetryAfter > time.Second {
		t.Errorf("Retry-After = %v, want in (0, 1s]", limited.RetryAfter)
	}
	s := stats(t, reg, "alpha")
	if s.RateLimited != 1 || s.RateLimitRPS != 1 || s.Weight != 1 {
		t.Errorf("stats = rate_limited %d rps %g weight %g, want 1 1 1", s.RateLimited, s.RateLimitRPS, s.Weight)
	}
	clock.Advance(time.Second)
	lease, err = reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatalf("acquire after refill: %v", err)
	}
	lease.Close()
}

// TestWeightedFairness proves a release's weight scales both its
// bulkhead carve and its rate-limit bucket, with a floor of one
// inflight permit for arbitrarily small weights.
func TestWeightedFairness(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "heavy", 1)
	saveRelease(t, root, "light", 2)
	opt := quietOpts()
	opt.MaxInflight = 4
	opt.TenantRPS = 10
	opt.Weights = map[string]float64{"heavy": 2, "light": 0.1}
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	// Touch both so the bulkheads exist, then inspect the carves.
	for _, name := range []string{"heavy", "light"} {
		lease, err := reg.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		lease.Close()
	}
	h, l := stats(t, reg, "heavy"), stats(t, reg, "light")
	if h.InflightLimit != 8 || h.Weight != 2 || h.RateLimitRPS != 20 {
		t.Errorf("heavy = limit %d weight %g rps %g, want 8 2 20", h.InflightLimit, h.Weight, h.RateLimitRPS)
	}
	// 4×0.1 truncates to 0; the floor keeps one permit.
	if l.InflightLimit != 1 || l.Weight != 0.1 || l.RateLimitRPS != 1 {
		t.Errorf("light = limit %d weight %g rps %g, want 1 0.1 1", l.InflightLimit, l.Weight, l.RateLimitRPS)
	}
}

// TestGreedyTenantIsolation floods one release past its rate limit and
// proves its sibling never sees an error: per-tenant buckets are the
// isolation boundary, not a shared limiter.
func TestGreedyTenantIsolation(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "greedy", 1)
	saveRelease(t, root, "polite", 2)
	clock := newFakeClock()
	opt := quietOpts()
	opt.Now = clock.Now
	opt.TenantRPS = 1
	opt.TenantBurst = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	var greedyLimited int
	for i := 0; i < 20; i++ {
		if lease, err := reg.Acquire(ctx, "greedy"); err != nil {
			var limited *server.RateLimitedError
			if !errors.As(err, &limited) {
				t.Fatalf("greedy acquire %d: %v, want RateLimitedError", i, err)
			}
			greedyLimited++
		} else {
			lease.Close()
		}
		// The polite tenant stays within its own budget (one query per
		// simulated second) and must never be turned away.
		if i%2 == 0 {
			lease, err := reg.Acquire(ctx, "polite")
			if err != nil {
				t.Fatalf("polite acquire %d: %v, want success", i, err)
			}
			lease.Close()
			clock.Advance(time.Second)
		}
	}
	if greedyLimited == 0 {
		t.Error("greedy tenant was never rate limited")
	}
	if s := stats(t, reg, "polite"); s.RateLimited != 0 {
		t.Errorf("polite tenant rate_limited = %d, want 0", s.RateLimited)
	}
}

// TestLeaseForwardsCacheOnlyQuery proves the lease surfaces the pinned
// querier's brownout cache-only path: a hit for a previously answered
// query, a miss (not a solve) for a cold one.
func TestLeaseForwardsCacheOnlyQuery(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, quietOpts()) // default CacheEntries > 0
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	lease, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Close()
	cq, ok := lease.(server.CacheOnlyQuerier)
	if !ok {
		t.Fatal("lease does not implement CacheOnlyQuerier")
	}
	if _, hit := cq.QueryCached([]int{0, 1}, core.CME); hit {
		t.Error("cold cache reported a hit")
	}
	mustQuery(t, lease) // populates the cache for {0,1}/CME
	tab, hit := cq.QueryCached([]int{0, 1}, core.CME)
	if !hit || tab == nil {
		t.Fatalf("warm cache miss (hit=%v tab=%v)", hit, tab)
	}
}

// versionLoader serves the store with a test-controlled Versioner
// token, standing in for a source that is not a snapshot store.
type versionLoader struct {
	mu      sync.Mutex
	version string
	loads   int
}

func (l *versionLoader) set(v string) {
	l.mu.Lock()
	l.version = v
	l.mu.Unlock()
}

func (l *versionLoader) Load(_ context.Context, _ string, st *snapshot.Store) (*snapshot.LoadResult, error) {
	l.mu.Lock()
	l.loads++
	l.mu.Unlock()
	return st.Load()
}

func (l *versionLoader) Version(string, *snapshot.Store) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version, nil
}

// TestSingleRelease pins the one-release registry behind priview-serve's
// -store and -synopsis modes: ready at once, no discovery of sibling
// directories, a Reconcile that never retires and reloads only on a
// source change, and an idle Reconcile that keeps the cache.
func TestSingleRelease(t *testing.T) {
	root := t.TempDir()
	st := saveRelease(t, root, "store", 1)
	if err := os.Mkdir(filepath.Join(root, "store", "sibling"), 0o755); err != nil {
		t.Fatal(err)
	}
	loader := &versionLoader{version: "v1"}
	reg, err := registry.NewSingle(st.Dir(), "default", registry.Options{Loader: loader, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if !reg.Ready() || fmt.Sprint(reg.Releases()) != "[default]" {
		t.Fatalf("ready=%v releases=%v, want ready with only [default]", reg.Ready(), reg.Releases())
	}
	if _, err := reg.Acquire(context.Background(), "sibling"); !errors.Is(err, server.ErrUnknownRelease) {
		t.Fatalf("Acquire(sibling) = %v, want ErrUnknownRelease (no discovery)", err)
	}
	lease, err := reg.Acquire(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, lease)
	lease.Close()

	// Nothing changed: no load, no retirement, the cache keeps its entry.
	if err := reg.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := reg.Stats()[0]; !s.Loaded || s.Reloads != 0 || s.CacheStats.Entries != 1 || loader.loads != 1 {
		t.Fatalf("idle reconcile: stats %+v, loads %d; want the release untouched", s, loader.loads)
	}
	// A new token reloads, whatever the store's file names say.
	loader.set("v2")
	if err := reg.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := reg.Stats()[0]; s.Reloads != 1 || loader.loads != 2 {
		t.Fatalf("reconcile after a version change: stats %+v, loads %d; want one reload", s, loader.loads)
	}
}
