// Command priview-serve serves published PriView synopses over HTTP.
// Because a synopsis is already differentially private, serving
// unlimited marginal queries from it consumes no additional privacy
// budget — this is the deployment story for a data curator: build once
// with cmd/priview, serve forever.
//
//	priview-serve -synopsis synopsis.json -addr :8080
//	priview-serve -store /var/lib/priview/snapshots -addr :8080
//	priview-serve -registry-root /var/lib/priview/releases -addr :8080
//
// Every mode serves a release registry through one HTTP front. With
// -registry-root every subdirectory of the root is a named release (its
// own snapshot store). -synopsis and -store serve a registry holding
// exactly one release, named "default", which the unprefixed routes
// alias. Endpoints, in every mode:
//
//	GET  /healthz                          liveness probe (503 while draining)
//	GET  /readyz                           readiness (503 until the first scan, and while draining)
//	GET  /v1/releases                      release names, default, admission counters
//	GET  /v1/{release}/info                release metadata
//	GET  /v1/{release}/marginal?attrs=1,5  reconstruct a marginal (&method=CLN etc.)
//	POST /v1/{release}/marginals           batch of marginal queries
//	GET  /v1/{release}/stats               per-release breaker, load and cache counters
//	GET  /v1/info|marginal|stats           alias for the default release
//	POST /v1/marginals                     alias for the default release
//	GET  /metrics                          Prometheus text exposition (all subsystems)
//
// The default release is -default-release in registry mode and
// "default" in the single modes. Its /v1/stats body is the release's
// stats object: "cache" says whether it keeps a query cache, and the
// counters sit under "cache_stats".
//
// Releases load lazily on first query — in the single modes the one
// release loads at startup, and a missing or corrupt -synopsis/-store
// exits 1 before listening — and are failure-isolated from each other:
// a release whose loads keep failing trips a per-release circuit
// breaker (-breaker-failures / -breaker-cooldown) and fast-fails with
// 503 + Retry-After without occupying shared load slots; each release
// sheds its own excess concurrency (-tenant-inflight, 429) and draws
// cache memory from one global -cache-bytes budget; at most -max-loaded
// synopses stay resident (LRU-evicted past that, re-warmed from their
// hot cache keys on return). SIGHUP — and every -reconcile-interval —
// rescans: in registry mode new directories serve, removed ones 404;
// in every mode a release whose source changed (a newer snapshot, or a
// rewritten -synopsis file) hot-reloads through keep-last-good, and a
// release whose source did not change keeps its cache.
//
// Query cache: because a synopsis is immutable, repeated (attrs,
// method) queries are memoized: -cache-entries bounds each release's
// cache (≤ 0 disables caching) and -cache-bytes all of them together
// (≤ 0 lifts the byte bound).
// -warm k precomputes every ≤k-way marginal in the background after
// each load, so the first real queries hit the cache.
//
// Durability: every synopsis is checksum-verified and audited against
// the release invariants before it serves a single query. From a
// snapshot store the newest verifiable snapshot is served; corrupt
// snapshots are quarantined to *.corrupt and loading falls back to an
// older good one. If a reload fails, the last good synopsis keeps
// serving.
//
// Failure model: -query-timeout bounds each reconstruction (504 on
// expiry); adaptive admission (-admission-target-delay, which must be
// > 0) queues marginal queries up to -max-inflight concurrent and
// sheds the excess with 429 + Retry-After; and SIGINT/SIGTERM drains
// gracefully — /healthz flips to 503 so load balancers stop routing,
// in-flight queries run to completion (up to -drain-timeout), then the
// listener closes.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"priview/internal/admission"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// singleRelease names the one release of the -synopsis and -store
// modes; the unprefixed routes alias it.
const singleRelease = "default"

func main() {
	synPath := flag.String("synopsis", "", "synopsis file from `priview build` (v1 or v2 snapshot), served as the one release \"default\"")
	storeDir := flag.String("store", "", "snapshot store directory, served as the one release \"default\" (the newest verifiable snapshot)")
	registryRoot := flag.String("registry-root", "", "multi-tenant registry root: each subdirectory is a release served on /v1/{release}/…")
	defaultRelease := flag.String("default-release", "", "release the unprefixed /v1/… routes alias in registry mode (empty: named routes only)")
	addr := flag.String("addr", ":8080", "listen address")
	maxK := flag.Int("max-k", 12, "largest marginal size a request may ask for")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-request reconstruction deadline (0 disables; expiry returns 504)")
	maxInflight := flag.Int("max-inflight", 64, "adaptive admission: concurrency ceiling and queue bound for marginal queries (≤0 keeps the controller defaults)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries before closing connections")
	cacheEntries := flag.Int("cache-entries", 4096, "query-cache entry bound per release (≤0 disables the cache)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "query-cache approximate byte budget shared by all releases (≤0 lifts the byte bound)")
	warm := flag.Int("warm", 0, "precompute all marginals of up to this many attributes into the cache after each load (0 disables)")
	maxLoaded := flag.Int("max-loaded", 8, "registry mode: synopses resident in memory at once, LRU-evicted past this (≤0 disables eviction)")
	tenantInflight := flag.Int("tenant-inflight", 32, "registry mode: per-release concurrent queries before that release sheds with 429 (≤0 disables)")
	breakerFailures := flag.Int("breaker-failures", 3, "registry mode: consecutive load failures that trip a release's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "registry mode: how long a tripped breaker fast-fails before admitting a probe")
	reconcileInterval := flag.Duration("reconcile-interval", time.Minute, "background rescan and hot-reload period (0 disables; SIGHUP always rescans)")
	admissionTarget := flag.Duration("admission-target-delay", 25*time.Millisecond, "adaptive admission: CoDel target queue delay; queries queue up to this sojourn before shedding starts (must be > 0)")
	tenantRPS := flag.Float64("tenant-rps", 0, "registry mode: per-release token-bucket rate limit in requests/second, scaled by -tenant-weights (0 disables)")
	tenantWeights := flag.String("tenant-weights", "", `registry mode: comma-separated name=weight fairness overrides (e.g. "gold=4,best-effort=0.5"); weight scales a release's rate limit and inflight carve`)
	brownout := flag.Duration("brownout", 0, "serve cache hits only to non-priority traffic after this long of sustained overload (0 disables)")
	batchMax := flag.Int("batch-max", 256, "largest query count one POST /v1/marginals batch may carry")
	batchWorkers := flag.Int("batch-workers", 0, "solver goroutines one batch may fan over (0 = GOMAXPROCS)")
	slowQuery := flag.Duration("slow-query", 0, "log a structured per-stage breakdown for any marginal request slower than this (0 disables)")
	statsLogInterval := flag.Duration("stats-log-interval", time.Minute, "period of the admission/registry stats log lines (0 disables; /metrics is unaffected)")
	flag.Parse()
	modes := 0
	for _, set := range []bool{*synPath != "", *storeDir != "", *registryRoot != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "priview-serve: exactly one of -synopsis, -store or -registry-root is required")
		os.Exit(2)
	}
	if *admissionTarget <= 0 {
		fmt.Fprintln(os.Stderr, "priview-serve: -admission-target-delay must be > 0")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One telemetry registry backs /metrics for the whole process: the
	// HTTP layer, admission control, every release's cache and warm
	// pass, and the solver all register their families here.
	tel := telemetry.NewRegistry()
	// Adaptive admission: queries queue briefly, CoDel sheds on
	// sustained sojourn, and an AIMD limit tracks the latency gradient
	// below the -max-inflight ceiling.
	cfg := &admission.Config{TargetDelay: *admissionTarget}
	if *maxInflight > 0 {
		cfg.MaxLimit = *maxInflight
		cfg.MaxQueue = *maxInflight
		cfg.InitialLimit = min(16, *maxInflight)
	}
	opt := server.Options{
		MaxK:         *maxK,
		QueryTimeout: *queryTimeout,
		MaxBatch:     *batchMax,
		BatchWorkers: *batchWorkers,
		Admission:    cfg,
		Telemetry:    tel,
		SlowQuery:    *slowQuery,
	}
	if *brownout > 0 {
		opt.Brownout = &admission.BrownoutConfig{Enter: *brownout}
	}
	regOpt := registry.Options{
		CacheEntries: orDisabled(*cacheEntries),
		CacheBytes:   orDisabled64(*cacheBytes),
		WarmK:        *warm,
		Metrics:      server.NewMetrics(tel),
	}
	var reg *registry.Registry
	def := singleRelease
	if *registryRoot != "" {
		weights, err := parseWeights(*tenantWeights)
		if err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		regOpt.MaxLoaded = orDisabled(*maxLoaded)
		regOpt.MaxInflight = orDisabled(*tenantInflight)
		regOpt.BreakerThreshold = *breakerFailures
		regOpt.BreakerCooldown = *breakerCooldown
		regOpt.TenantRPS = *tenantRPS
		regOpt.Weights = weights
		if reg, err = registry.New(*registryRoot, regOpt); err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		if err := reg.Reconcile(ctx); err != nil {
			log.Fatalf("priview-serve: initial registry scan: %v", err)
		}
		def = *defaultRelease
		log.Printf("serving registry %s (%d releases, default %q) on %s",
			*registryRoot, len(reg.Releases()), def, *addr)
	} else {
		var err error
		if reg, err = openSingle(ctx, *synPath, *storeDir, regOpt); err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		log.Printf("serving synopsis from %s on %s", reg.Stats()[0].Snapshot, *addr)
	}
	defer reg.Close()
	if *reconcileInterval > 0 {
		go reg.Run(ctx, *reconcileInterval)
	}
	handler := server.NewMulti(reg, def, opt)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	// A nil channel blocks forever, so -stats-log-interval=0 simply
	// never fires the periodic log lines (scraping stays live).
	var statsC <-chan time.Time
	if *statsLogInterval > 0 {
		statsTick := time.NewTicker(*statsLogInterval)
		defer statsTick.Stop()
		statsC = statsTick.C
	}

	for {
		select {
		case err := <-done:
			// Listener failed before any signal (e.g. port in use).
			log.Fatalf("priview-serve: %v", err)
		case <-hup:
			if err := reg.Reconcile(ctx); err != nil {
				log.Printf("priview-serve: rescan failed: %v", err)
			}
		case <-statsC:
			logRegistryStats(reg)
			logAdmissionStats(handler)
		case <-ctx.Done():
			stop() // a second signal kills immediately via the default handler
			log.Printf("signal received, draining for up to %v", *drainTimeout)
			if err := shutdown(srv, handler, *drainTimeout); err != nil {
				log.Printf("priview-serve: drain incomplete: %v", err)
			}
			if err := <-done; err != http.ErrServerClosed {
				log.Fatalf("priview-serve: %v", err)
			}
			log.Printf("drained, exiting")
			return
		}
	}
}

// orDisabled maps the flag convention (≤0 disables) onto the registry
// convention (0 means default, negative disables).
func orDisabled(v int) int {
	if v <= 0 {
		return -1
	}
	return v
}

func orDisabled64(v int64) int64 {
	if v <= 0 {
		return -1
	}
	return v
}

// openSingle opens the one-release registry of the -synopsis and -store
// modes and loads the release eagerly, so a missing or corrupt synopsis
// fails startup rather than the first query. The release gets the whole
// cache budget (it is the only one resident) and no per-release
// bulkhead: the router's admission control is its only gate.
func openSingle(ctx context.Context, synPath, storeDir string, opt registry.Options) (*registry.Registry, error) {
	opt.MaxLoaded = 1
	opt.MaxInflight = -1
	dir := storeDir
	if synPath != "" {
		opt.Loader = fileLoader{path: synPath}
		dir = filepath.Dir(synPath)
	}
	reg, err := registry.NewSingle(dir, singleRelease, opt)
	if err != nil {
		return nil, err
	}
	lease, err := reg.Acquire(ctx, singleRelease)
	if err != nil {
		reg.Close()
		return nil, err
	}
	lease.Close()
	return reg, nil
}

// fileLoader feeds a one-release registry from a single synopsis file
// published by `priview build` (bare v1 or checksummed v2); the
// release's snapshot store goes unused. The registry audits whatever
// it returns against the release invariants before serving it.
type fileLoader struct{ path string }

// Load implements registry.Loader.
func (l fileLoader) Load(ctx context.Context, _ string, _ *snapshot.Store) (*snapshot.LoadResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	syn, err := snapshot.ReadFileFS(snapshot.OS{}, l.path)
	if err != nil {
		return nil, err
	}
	return &snapshot.LoadResult{Synopsis: syn, Path: l.path}, nil
}

// Version implements registry.Versioner: a digest of the file's bytes,
// so a rescan after the file is rewritten reloads it and one with the
// content unchanged keeps the served synopsis and its cache.
func (l fileLoader) Version(string, *snapshot.Store) (string, error) {
	raw, err := os.ReadFile(l.path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw)), nil
}

// parseWeights parses the -tenant-weights "name=weight,..." list.
func parseWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights: %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights: bad weight for %q (want a positive number)", name)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

// logAdmissionStats emits the periodic overload-control line; silent
// until the admission machinery has engaged at least once.
func logAdmissionStats(h *server.Multi) {
	s := h.AdmissionStats()
	if s == nil {
		return
	}
	line := fmt.Sprintf("priview-serve: admission stats: limit=%.1f inflight=%d queue=%d admitted=%d queued=%d shed=%d codel_dropped=%d deadline_rejected=%d",
		s.Limit, s.Inflight, s.QueueDepth, s.Admitted, s.Queued, s.Shed, s.CoDelDropped, s.DeadlineRejected)
	if s.BrownoutActive || s.BrownoutServed > 0 || s.BrownoutRejected > 0 {
		line += fmt.Sprintf(" brownout_active=%v brownout_served=%d brownout_rejected=%d",
			s.BrownoutActive, s.BrownoutServed, s.BrownoutRejected)
	}
	log.Print(line)
}

// logRegistryStats emits the periodic per-registry summary: residency,
// the shared cache pool, and any release whose breaker is not closed.
func logRegistryStats(reg *registry.Registry) {
	all := reg.Stats()
	loaded := 0
	var open []string
	for _, s := range all {
		if s.Loaded {
			loaded++
		}
		if s.Breaker != "closed" {
			open = append(open, fmt.Sprintf("%s=%s", s.Name, s.Breaker))
		}
	}
	line := fmt.Sprintf("priview-serve: registry stats: releases=%d loaded=%d", len(all), loaded)
	if b := reg.Budget(); b != nil {
		line += fmt.Sprintf(" cache_bytes=%d/%d", b.Used(), b.Total())
	}
	if len(open) > 0 {
		line += " breakers=" + fmt.Sprint(open)
	}
	log.Print(line)
}

// shutdown drains srv gracefully: the handler's health probes flip to
// 503 so load balancers stop routing new work, then http.Server.Shutdown
// waits up to drain for in-flight requests before closing connections.
func shutdown(srv *http.Server, handler *server.Multi, drain time.Duration) error {
	handler.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(ctx)
}
