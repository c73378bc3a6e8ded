package registry

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// breakerState is the per-release circuit breaker FSM.
type breakerState int

const (
	// stateClosed: loads proceed normally (with exponential backoff
	// between consecutive failures below the trip threshold).
	stateClosed breakerState = iota
	// stateOpen: every acquire fast-fails with 503 + Retry-After until
	// the cooldown elapses; the shared load semaphore is never touched.
	stateOpen
	// stateHalfOpen: exactly one acquirer becomes the probe and runs a
	// real load; everyone else still fast-fails. Success closes the
	// breaker, failure re-opens it for another full cooldown.
	stateHalfOpen
)

// maxHandoffKeys caps how many hot cache keys survive an eviction for
// warm handoff — enough to restore a working set, bounded so a huge
// cache cannot turn re-admission into an unbounded replay.
const maxHandoffKeys = 1024

// release is one tenant's complete serving state. All isolation state
// is local to this struct: nothing a release does here can reach a
// sibling except through the two deliberately shared, bounded
// resources (the registry's load semaphore and cache byte budget).
type release struct {
	reg      *Registry
	name     string
	store    *snapshot.Store
	inflight chan struct{}          // bulkhead permits (weight-scaled); nil = unbounded
	bucket   *admission.TokenBucket // per-tenant rate limit; nil = disabled
	weight   float64                // fairness weight scaling bucket and bulkhead

	// loadedFlag and lastTouch shadow mu-guarded state for the
	// registry's lock-free LRU scan.
	loadedFlag atomic.Bool
	lastTouch  atomic.Int64

	mu         sync.Mutex
	loaded     bool
	retired    bool
	q          server.Querier // nil until first successful load
	cache      *qcache.Cache  // nil when caching disabled or evicted
	loadedPath string         // snapshot file currently served
	version    string         // source version served (see Versioner)
	loading    chan struct{}  // non-nil while a load is in flight (singleflight)
	warmMasks  []qcache.Key   // hot keys saved at eviction, replayed on re-admit

	state        breakerState
	consecFails  int
	openedUntil  time.Time     // stateOpen: when the cooldown ends
	probing      bool          // stateHalfOpen: a probe holds the slot
	backoff      time.Duration // current inter-failure backoff
	backoffUntil time.Time
	lastErr      string

	c counters
}

// counters are the per-release observability counters; lock-free
// telemetry handles so the stats path never contends with the serving
// path. Standalone by default; when the registry carries a Metrics
// surface they are the release-labeled registry series instead, so the
// JSON stats and /metrics read one set of numbers.
type counters struct {
	LoadAttempts   *telemetry.Counter
	LoadFailures   *telemetry.Counter
	Reloads        *telemetry.Counter
	ReloadFailures *telemetry.Counter
	Trips          *telemetry.Counter
	BreakerRejects *telemetry.Counter
	BackoffRejects *telemetry.Counter
	HalfOpenProbes *telemetry.Counter
	Shed           *telemetry.Counter
	RateLimited    *telemetry.Counter
	Evictions      *telemetry.Counter
	Readmits       *telemetry.Counter
}

// releaseFamilies is the registry's per-release counter family set,
// registered once per telemetry registry; each release interns its own
// children by name at registration time.
type releaseFamilies struct {
	loadAttempts   *telemetry.CounterVec
	loadFailures   *telemetry.CounterVec
	reloads        *telemetry.CounterVec
	reloadFailures *telemetry.CounterVec
	trips          *telemetry.CounterVec
	breakerRejects *telemetry.CounterVec
	backoffRejects *telemetry.CounterVec
	halfOpenProbes *telemetry.CounterVec
	shed           *telemetry.CounterVec
	rateLimited    *telemetry.CounterVec
	evictions      *telemetry.CounterVec
	readmits       *telemetry.CounterVec
}

func newReleaseFamilies(reg *telemetry.Registry) *releaseFamilies {
	return &releaseFamilies{
		loadAttempts:   reg.CounterVec("priview_release_load_attempts_total", "Release load attempts (first admission and breaker probes).", "release"),
		loadFailures:   reg.CounterVec("priview_release_load_failures_total", "Release loads that failed checksum, audit or I/O.", "release"),
		reloads:        reg.CounterVec("priview_release_reloads_total", "Successful hot reloads through keep-last-good.", "release"),
		reloadFailures: reg.CounterVec("priview_release_reload_failures_total", "Hot reloads that failed and kept the last good synopsis.", "release"),
		trips:          reg.CounterVec("priview_release_breaker_trips_total", "Circuit-breaker openings.", "release"),
		breakerRejects: reg.CounterVec("priview_release_breaker_rejects_total", "Acquires fast-failed by an open or probing breaker.", "release"),
		backoffRejects: reg.CounterVec("priview_release_backoff_rejects_total", "Acquires fast-failed during inter-failure load backoff.", "release"),
		halfOpenProbes: reg.CounterVec("priview_release_half_open_probes_total", "Half-open breaker probes admitted.", "release"),
		shed:           reg.CounterVec("priview_release_shed_total", "Acquires shed by the release's own bulkhead.", "release"),
		rateLimited:    reg.CounterVec("priview_release_rate_limited_total", "Acquires refused by the tenant token bucket.", "release"),
		evictions:      reg.CounterVec("priview_release_evictions_total", "Residency-bound evictions of the release's synopsis.", "release"),
		readmits:       reg.CounterVec("priview_release_readmits_total", "Re-admissions of a previously evicted release.", "release"),
	}
}

// interned returns the release's counter set as children of the
// registry families, cumulative across reloads and evictions.
func (f *releaseFamilies) interned(name string) counters {
	return counters{
		LoadAttempts:   f.loadAttempts.With(name),
		LoadFailures:   f.loadFailures.With(name),
		Reloads:        f.reloads.With(name),
		ReloadFailures: f.reloadFailures.With(name),
		Trips:          f.trips.With(name),
		BreakerRejects: f.breakerRejects.With(name),
		BackoffRejects: f.backoffRejects.With(name),
		HalfOpenProbes: f.halfOpenProbes.With(name),
		Shed:           f.shed.With(name),
		RateLimited:    f.rateLimited.With(name),
		Evictions:      f.evictions.With(name),
		Readmits:       f.readmits.With(name),
	}
}

// standaloneCounters is the no-telemetry fallback counter set.
func standaloneCounters() counters {
	return counters{
		LoadAttempts:   telemetry.NewCounter(),
		LoadFailures:   telemetry.NewCounter(),
		Reloads:        telemetry.NewCounter(),
		ReloadFailures: telemetry.NewCounter(),
		Trips:          telemetry.NewCounter(),
		BreakerRejects: telemetry.NewCounter(),
		BackoffRejects: telemetry.NewCounter(),
		HalfOpenProbes: telemetry.NewCounter(),
		Shed:           telemetry.NewCounter(),
		RateLimited:    telemetry.NewCounter(),
		Evictions:      telemetry.NewCounter(),
		Readmits:       telemetry.NewCounter(),
	}
}

func newRelease(reg *Registry, name string, st *snapshot.Store) *release {
	rl := &release{reg: reg, name: name, store: st, weight: reg.opt.weightFor(name)}
	if reg.fams != nil {
		rl.c = reg.fams.interned(name)
		// Registered once per release name: the hook follows the current
		// cache through rl, and a retired-then-readded name's stale hook
		// goes quiet (cache nil → ok false) rather than double-counting.
		reg.opt.Metrics.WatchCacheGauges(name, rl.cacheStats)
	} else {
		rl.c = standaloneCounters()
	}
	if reg.opt.MaxInflight > 0 {
		// Weighted bulkhead carve: a heavier tenant may hold more
		// concurrent queries, but every tenant keeps at least one permit
		// so a tiny weight cannot starve a release outright.
		n := int(float64(reg.opt.MaxInflight) * rl.weight)
		if n < 1 {
			n = 1
		}
		rl.inflight = make(chan struct{}, n)
	}
	if reg.opt.TenantRPS > 0 {
		rl.bucket = admission.NewTokenBucket(reg.opt.TenantRPS*rl.weight, reg.opt.TenantBurst*rl.weight, reg.opt.Now)
	}
	return rl
}

// lease pins one admitted query to the querier that was current at
// acquire time: a reload or eviction mid-query cannot change the
// answer underneath the caller. The embedded Querier is that pinned
// querier; Close returns the bulkhead permit exactly once.
type lease struct {
	server.Querier
	rl     *release
	closed atomic.Bool
}

func (l *lease) Close() {
	if l.closed.CompareAndSwap(false, true) && l.rl.inflight != nil {
		<-l.rl.inflight
	}
}

// QueryCached forwards the brownout cache-only lookup to the pinned
// querier. The forward must be explicit: the embedded Querier is an
// interface value, so optional interfaces like server.CacheOnlyQuerier
// do not surface through it via type assertion on the lease.
func (l *lease) QueryCached(attrs []int, method core.ReconstructMethod) (*marginal.Table, bool) {
	if cq, ok := l.Querier.(server.CacheOnlyQuerier); ok {
		return cq.QueryCached(attrs, method)
	}
	return nil, false
}

// QueryBatch forwards the batched query surface to the pinned querier
// (explicitly, for the same reason as QueryCached), falling back to the
// sequential loop for queriers that cannot batch. The whole batch runs
// under this lease's one bulkhead permit — a batch is one admitted
// request, its internal parallelism bounded by the server's
// BatchWorkers, not by the tenant's permit count.
func (l *lease) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	if bq, ok := l.Querier.(server.BatchQuerier); ok {
		return bq.QueryBatch(ctx, reqs, opt)
	}
	return server.QueryBatchSequential(ctx, l.Querier, reqs)
}

// DefaultMethod forwards the configured default estimator; CME when the
// pinned querier exposes none.
func (l *lease) DefaultMethod() core.ReconstructMethod {
	if dm, ok := l.Querier.(server.DefaultMethoder); ok {
		return dm.DefaultMethod()
	}
	return core.CME
}

// acquire runs the tenant's admission ladder — rate limit, then
// bulkhead, then resolution — and hands back a lease pinned to the
// querier current at acquire time. The bucket is consulted first so a
// tenant over its rate cannot even contend for bulkhead permits.
func (rl *release) acquire(ctx context.Context) (server.Lease, error) {
	if rl.bucket != nil && !rl.bucket.Allow() {
		rl.c.RateLimited.Add(1)
		ra := rl.bucket.NextIn()
		if ra <= 0 {
			ra = rl.reg.opt.RetryAfter
		}
		return nil, &server.RateLimitedError{RetryAfter: ra}
	}
	if rl.inflight != nil {
		select {
		case rl.inflight <- struct{}{}:
		default:
			rl.c.Shed.Add(1)
			return nil, &server.SaturatedError{RetryAfter: rl.reg.opt.RetryAfter}
		}
	}
	q, err := rl.ensure(ctx)
	if err != nil {
		if rl.inflight != nil {
			<-rl.inflight
		}
		return nil, err
	}
	return &lease{Querier: q, rl: rl}, nil
}

// ensure returns the release's current querier, driving the breaker
// FSM and the singleflight load. The loop re-evaluates after every
// wait; ctx is checked at the top of each pass.
func (rl *release) ensure(ctx context.Context) (server.Querier, error) {
	for {
		if err := reconstruct.ContextErr(ctx); err != nil {
			return nil, err
		}
		rl.mu.Lock()
		if rl.retired {
			rl.mu.Unlock()
			return nil, server.ErrUnknownRelease
		}
		if rl.loaded {
			q := rl.q
			rl.mu.Unlock()
			rl.lastTouch.Store(rl.reg.nextTouch())
			return q, nil
		}
		now := rl.reg.opt.Now()
		if rl.state == stateOpen {
			if now.Before(rl.openedUntil) {
				remaining := rl.openedUntil.Sub(now)
				reason := "circuit breaker open"
				if rl.lastErr != "" {
					reason += ": " + rl.lastErr
				}
				rl.c.BreakerRejects.Add(1)
				rl.mu.Unlock()
				return nil, &server.UnavailableError{Reason: reason, RetryAfter: remaining}
			}
			rl.state = stateHalfOpen
		}
		switch {
		case rl.state == stateHalfOpen:
			if rl.probing || rl.loading != nil {
				rl.c.BreakerRejects.Add(1)
				rl.mu.Unlock()
				return nil, &server.UnavailableError{
					Reason:     "circuit breaker half-open, probe in flight",
					RetryAfter: rl.reg.opt.RetryAfter,
				}
			}
			rl.probing = true
			rl.c.HalfOpenProbes.Add(1)
		case rl.loading != nil:
			// Someone else is loading; wait for their verdict, then
			// re-evaluate from scratch.
			ch := rl.loading
			rl.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, reconstruct.ContextErr(ctx)
			}
		case now.Before(rl.backoffUntil):
			remaining := rl.backoffUntil.Sub(now)
			reason := "load backoff"
			if rl.lastErr != "" {
				reason += ": " + rl.lastErr
			}
			rl.c.BackoffRejects.Add(1)
			rl.mu.Unlock()
			return nil, &server.UnavailableError{Reason: reason, RetryAfter: remaining}
		}
		ch := make(chan struct{})
		rl.loading = ch
		rl.mu.Unlock()
		return rl.lead(ctx, ch)
	}
}

// lead runs the singleflight load as its leader: shared-semaphore
// admission, the loader, the audit gate, then publish-or-strike.
func (rl *release) lead(ctx context.Context, ch chan struct{}) (server.Querier, error) {
	rl.c.LoadAttempts.Add(1)
	// Breaker-open tenants return before this point, so a broken
	// tenant in fast-fail never occupies a shared load slot.
	res, version, err := rl.load(ctx)
	if err == nil {
		return rl.publish(res, version), nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, reconstruct.ErrCanceled) {
		// The client went away mid-load — not the tenant's fault, so no
		// strike. Just release the singleflight so the next caller
		// leads (a half-open probe slot is returned too).
		rl.mu.Lock()
		rl.probing = false
		rl.loading = nil
		rl.mu.Unlock()
		close(ch)
		return nil, err
	}
	return nil, rl.strike(ch, err)
}

// load runs the loader under the shared load semaphore, then the audit
// gate, and reports the source version it loaded: the Versioner's
// token taken just before loading, else the loaded snapshot's name.
func (rl *release) load(ctx context.Context) (*snapshot.LoadResult, string, error) {
	reg := rl.reg
	var version string
	vr, versioned := reg.opt.Loader.(Versioner)
	if versioned {
		//lint:ignore errdiscard an unreadable token stays empty, so the next Reconcile that can read one reloads
		version, _ = vr.Version(rl.name, rl.store)
	}
	var res *snapshot.LoadResult
	var err error
	select {
	case reg.loadSem <- struct{}{}:
		res, err = reg.opt.Loader.Load(ctx, rl.name, rl.store)
		<-reg.loadSem
	case <-ctx.Done():
		err = reconstruct.ContextErr(ctx)
	}
	if err != nil {
		return nil, "", err
	}
	for i, q := range res.Quarantined {
		reg.opt.Logger.Printf("registry: %s: quarantined corrupt snapshot %s: %v", rl.name, q, res.Errs[i])
	}
	if err := auditGate(res); err != nil {
		return nil, "", err
	}
	if !versioned {
		version = filepath.Base(res.Path)
	}
	return res, version, nil
}

// sourceVersion reports the version the release's source holds now:
// the Versioner's token, else the newest snapshot's name. ok is false
// when it cannot be read or there is nothing to load.
func (rl *release) sourceVersion() (string, bool) {
	if vr, ok := rl.reg.opt.Loader.(Versioner); ok {
		v, err := vr.Version(rl.name, rl.store)
		return v, err == nil
	}
	names, err := rl.store.Snapshots()
	if err != nil || len(names) == 0 {
		return "", false
	}
	return names[0], true
}

// serving wraps a freshly loaded synopsis in a fresh cache (keys carry
// no synopsis identity, so caches never survive a data change), or
// returns it bare when caching is disabled.
func (rl *release) serving(syn *core.Synopsis) (server.Querier, *qcache.Cache) {
	reg := rl.reg
	if reg.opt.CacheEntries <= 0 {
		return syn, nil
	}
	cache := qcache.NewShared(reg.opt.CacheEntries, reg.opt.perReleaseBytes(), reg.budget)
	cq := server.NewCachedQuerier(syn, cache)
	if reg.opt.Metrics != nil {
		// Each load builds a fresh cache; swapping it onto the release's
		// interned handles keeps the exported series cumulative over
		// the release's lifetime.
		reg.opt.Metrics.InstrumentCache(rl.name, cq)
	}
	return cq, cache
}

// publish installs a freshly loaded synopsis as the serving state:
// fresh cache, breaker closed, residency enforced, warm handoff
// scheduled.
func (rl *release) publish(res *snapshot.LoadResult, version string) server.Querier {
	reg := rl.reg
	q, cache := rl.serving(res.Synopsis)
	rl.mu.Lock()
	rl.q = q
	readmitted := rl.warmMasks != nil
	handoff := rl.warmMasks
	rl.warmMasks = nil
	rl.cache = cache
	rl.loaded = true
	rl.loadedPath = res.Path
	rl.version = version
	rl.state = stateClosed
	rl.consecFails = 0
	rl.probing = false
	rl.backoff = 0
	rl.backoffUntil = time.Time{}
	rl.lastErr = ""
	ch := rl.loading
	rl.loading = nil
	rl.mu.Unlock()
	rl.loadedFlag.Store(true)
	rl.lastTouch.Store(reg.nextTouch())
	if readmitted {
		rl.c.Readmits.Add(1)
	}
	close(ch)
	reg.noteLoaded(rl)
	rl.warmAsync(q, handoff)
	return q
}

// strike records a load failure: backoff doubles, and at the
// threshold (or on any half-open probe failure) the breaker opens for
// a full cooldown. The returned error carries the Retry-After the
// caller should surface.
func (rl *release) strike(ch chan struct{}, cause error) error {
	reg := rl.reg
	rl.c.LoadFailures.Add(1)
	now := reg.opt.Now()
	rl.mu.Lock()
	rl.lastErr = cause.Error()
	rl.consecFails++
	if rl.backoff == 0 {
		rl.backoff = reg.opt.BackoffBase
	} else {
		rl.backoff *= 2
		if rl.backoff > reg.opt.BackoffMax {
			rl.backoff = reg.opt.BackoffMax
		}
	}
	rl.backoffUntil = now.Add(rl.backoff)
	wasProbe := rl.probing
	rl.probing = false
	tripped := false
	if wasProbe || rl.consecFails >= reg.opt.BreakerThreshold {
		if rl.state != stateOpen {
			tripped = true
		}
		rl.state = stateOpen
		rl.openedUntil = now.Add(reg.opt.BreakerCooldown)
	}
	retryAfter := rl.backoff
	if rl.state == stateOpen {
		retryAfter = reg.opt.BreakerCooldown
	}
	rl.loading = nil
	rl.mu.Unlock()
	close(ch)
	if tripped {
		rl.c.Trips.Add(1)
		reg.opt.Logger.Printf("registry: %s: circuit breaker opened for %v after %d consecutive failures: %v",
			rl.name, reg.opt.BreakerCooldown, rl.consecFailsApprox(), cause)
	}
	if errors.Is(cause, context.DeadlineExceeded) || errors.Is(cause, reconstruct.ErrDeadline) {
		// The caller's deadline expired while loading (the slow-loader
		// failure mode): it counted as a strike above, but the caller
		// gets the truthful 504.
		return cause
	}
	return &server.UnavailableError{Reason: "load failed: " + cause.Error(), RetryAfter: retryAfter}
}

// cacheStats feeds the release's scrape-time cache gauges: the current
// cache's snapshot, following reloads and evictions through rl. ok is
// false while the release holds no cache (cold, evicted or retired).
func (rl *release) cacheStats() (qcache.Stats, bool) {
	rl.mu.Lock()
	c := rl.cache
	rl.mu.Unlock()
	if c == nil {
		return qcache.Stats{}, false
	}
	return c.Stats(), true
}

// consecFailsApprox reads the failure streak for log lines only.
func (rl *release) consecFailsApprox() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.consecFails
}

// evict drops the release's resident synopsis and cache, remembering
// the hottest cache keys so a later re-admission starts warm. Called
// with reg.mu held (reg.mu → rl.mu is the sanctioned order).
func (rl *release) evict() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if !rl.loaded || rl.retired {
		return
	}
	if rl.cache != nil {
		keys := rl.cache.Keys()
		if len(keys) > maxHandoffKeys {
			keys = keys[:maxHandoffKeys]
		}
		rl.warmMasks = keys
		rl.cache.Purge()
	}
	rl.cache = nil
	rl.q = nil
	rl.loaded = false
	rl.loadedPath = ""
	rl.loadedFlag.Store(false)
	rl.c.Evictions.Add(1)
}

// retire marks the release gone: resident state is dropped, future
// acquires get ErrUnknownRelease, in-flight leases finish untouched.
func (rl *release) retire() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.retired = true
	if rl.cache != nil {
		rl.cache.Purge()
	}
	rl.cache = nil
	rl.q = nil
	rl.loaded = false
	rl.loadedFlag.Store(false)
}

// currentQuerier returns the querier new queries would see, or nil if
// the release is not resident — the staleness check warm replay uses
// to stop filling a cache that has been evicted or swapped out.
func (rl *release) currentQuerier() server.Querier {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if !rl.loaded {
		return nil
	}
	return rl.q
}

// warmAsync pre-fills q's cache in the background: first the handoff
// keys (the queries that were hot when this release was last evicted
// or reloaded), then the configured ≤WarmK-way sweep. Best-effort —
// it stops the moment q stops being the release's current querier.
func (rl *release) warmAsync(q server.Querier, handoff []qcache.Key) {
	reg := rl.reg
	if len(handoff) == 0 && reg.opt.WarmK <= 0 {
		return
	}
	ctx := reg.bg
	go func() {
		replayed := 0
		for _, k := range handoff {
			if ctx.Err() != nil || rl.currentQuerier() != q {
				return
			}
			if _, err := q.QueryMethodContext(ctx, k.Mask.Attrs(), core.ReconstructMethod(k.Method)); err == nil {
				replayed++
			}
		}
		if replayed > 0 {
			reg.opt.Logger.Printf("registry: %s: warm handoff replayed %d/%d cached queries", rl.name, replayed, len(handoff))
		}
		cq, ok := q.(*server.CachedQuerier)
		if !ok || reg.opt.WarmK <= 0 {
			return
		}
		// The nil *WarmProgress is inert, so the no-telemetry path runs
		// the same code.
		var wp *server.WarmProgress
		if reg.opt.Metrics != nil {
			wp = reg.opt.Metrics.WarmProgress(rl.name)
		}
		wp.Begin()
		warmed, skipped, err := cq.WarmWithProgress(ctx, reg.opt.WarmK, 0, wp.Update)
		wp.End(warmed, skipped)
		if err != nil {
			reg.opt.Logger.Printf("registry: %s: cache warming stopped after %d marginals (%d skipped): %v", rl.name, warmed, skipped, err)
			return
		}
		reg.opt.Logger.Printf("registry: %s: warmed %d marginals (≤%d-way, %d skipped)", rl.name, warmed, reg.opt.WarmK, skipped)
	}()
}

// maybeReload checks whether the release's source version (its newest
// on-disk snapshot, or its Versioner token) differs from the one being
// served and, if so, hot-reloads it through keep-last-good: the old
// synopsis serves until the new one has passed checksum + audit, and a
// failed reload changes nothing but a counter.
// Cold releases stay cold (lazy loading is the admission path).
func (rl *release) maybeReload(ctx context.Context) {
	newest, ok := rl.sourceVersion()
	if !ok {
		return
	}
	rl.mu.Lock()
	if !rl.loaded || rl.retired || rl.loading != nil || rl.version == newest {
		rl.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	rl.loading = ch
	oldCache := rl.cache
	rl.mu.Unlock()

	reg := rl.reg
	res, version, err := rl.load(ctx)
	if err != nil {
		reg.opt.Logger.Printf("registry: %s: reload failed, keeping last good synopsis: %v", rl.name, err)
		rl.c.ReloadFailures.Add(1)
		rl.mu.Lock()
		rl.lastErr = err.Error()
		rl.loading = nil
		rl.mu.Unlock()
		close(ch)
		return
	}
	q, cache := rl.serving(res.Synopsis)
	// The old cache's hot keys seed the new one; its entries must not
	// survive (qcache keys carry no synopsis identity).
	var handoff []qcache.Key
	if oldCache != nil {
		handoff = oldCache.Keys()
		if len(handoff) > maxHandoffKeys {
			handoff = handoff[:maxHandoffKeys]
		}
		oldCache.Purge()
	}
	rl.mu.Lock()
	if rl.retired {
		rl.loading = nil
		rl.mu.Unlock()
		close(ch)
		return
	}
	// If the release was evicted while the reload was in flight, this
	// is a fresh admission.
	rl.q = q
	rl.cache = cache
	rl.loaded = true
	rl.loadedPath = res.Path
	rl.version = version
	rl.loading = nil
	rl.mu.Unlock()
	rl.loadedFlag.Store(true)
	rl.c.Reloads.Add(1)
	close(ch)
	reg.opt.Logger.Printf("registry: %s: reloaded snapshot %s (ε=%g)", rl.name, filepath.Base(res.Path), res.Synopsis.Epsilon())
	reg.noteLoaded(rl)
	rl.warmAsync(q, handoff)
}

// ReleaseStats is the observability snapshot served on
// /v1/{release}/stats. Every counter the chaos suite asserts on —
// breaker trips, probes, sheds, evictions — is here.
type ReleaseStats struct {
	Name                string       `json:"name"`
	Loaded              bool         `json:"loaded"`
	Snapshot            string       `json:"snapshot,omitempty"`
	Breaker             string       `json:"breaker"`
	ConsecutiveFailures int          `json:"consecutive_failures"`
	BreakerTrips        uint64       `json:"breaker_trips"`
	BreakerRejects      uint64       `json:"breaker_rejects"`
	BackoffRejects      uint64       `json:"backoff_rejects"`
	HalfOpenProbes      uint64       `json:"half_open_probes"`
	LoadAttempts        uint64       `json:"load_attempts"`
	LoadFailures        uint64       `json:"load_failures"`
	Reloads             uint64       `json:"reloads"`
	ReloadFailures      uint64       `json:"reload_failures"`
	Shed                uint64       `json:"shed"`
	RateLimited         uint64       `json:"rate_limited"`
	RateLimitRPS        float64      `json:"rate_limit_rps,omitempty"`
	Weight              float64      `json:"weight"`
	Evictions           uint64       `json:"evictions"`
	Readmits            uint64       `json:"readmits"`
	LastError           string       `json:"last_error,omitempty"`
	InflightLimit       int          `json:"inflight_limit"`
	Inflight            int          `json:"inflight"`
	Cache               bool         `json:"cache"`
	CacheStats          qcache.Stats `json:"cache_stats"`
}

// stats snapshots the release's state without loading or touching it.
func (rl *release) stats() ReleaseStats {
	now := rl.reg.opt.Now()
	rl.mu.Lock()
	breaker := "closed"
	switch {
	case rl.state == stateOpen && now.Before(rl.openedUntil):
		breaker = "open"
	case rl.state == stateOpen || rl.state == stateHalfOpen:
		// Cooldown elapsed (probe pending) or probe in flight.
		breaker = "half-open"
	}
	s := ReleaseStats{
		Name:                rl.name,
		Loaded:              rl.loaded,
		Breaker:             breaker,
		ConsecutiveFailures: rl.consecFails,
		LastError:           rl.lastErr,
		Cache:               rl.cache != nil,
	}
	if rl.loadedPath != "" {
		s.Snapshot = filepath.Base(rl.loadedPath)
	}
	if rl.cache != nil {
		s.CacheStats = rl.cache.Stats()
	}
	rl.mu.Unlock()
	s.BreakerTrips = rl.c.Trips.Value()
	s.BreakerRejects = rl.c.BreakerRejects.Value()
	s.BackoffRejects = rl.c.BackoffRejects.Value()
	s.HalfOpenProbes = rl.c.HalfOpenProbes.Value()
	s.LoadAttempts = rl.c.LoadAttempts.Value()
	s.LoadFailures = rl.c.LoadFailures.Value()
	s.Reloads = rl.c.Reloads.Value()
	s.ReloadFailures = rl.c.ReloadFailures.Value()
	s.Shed = rl.c.Shed.Value()
	s.RateLimited = rl.c.RateLimited.Value()
	s.Weight = rl.weight
	if rl.bucket != nil {
		s.RateLimitRPS = rl.reg.opt.TenantRPS * rl.weight
	}
	s.Evictions = rl.c.Evictions.Value()
	s.Readmits = rl.c.Readmits.Value()
	if rl.inflight != nil {
		s.InflightLimit = cap(rl.inflight)
		s.Inflight = len(rl.inflight)
	}
	return s
}
