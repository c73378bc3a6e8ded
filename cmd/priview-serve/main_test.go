package main

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"priview"
	"priview/internal/registry"
	"priview/internal/server"
)

// buildSynopsisFile publishes a tiny synopsis the way `priview build`
// would, returning its path.
func buildSynopsisFile(t *testing.T) string {
	t.Helper()
	const d = 6
	records := make([]uint64, 200)
	for i := range records {
		records[i] = uint64(i*2654435761) & ((1 << d) - 1)
	}
	data := priview.NewDataset(d, records)
	plan := priview.PlanDesign(d, data.Len(), 1.0, 1)
	syn := priview.Build(data, priview.Config{Epsilon: 1.0, Design: plan.Design}, 42)

	path := filepath.Join(t.TempDir(), "synopsis.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// quietOpts is the registry configuration main builds for the single
// modes, minus telemetry, with the cache on.
func quietOpts() registry.Options {
	return registry.Options{
		CacheEntries: 128,
		CacheBytes:   1 << 20,
		Logger:       log.New(io.Discard, "", 0),
	}
}

// serveSingle opens the one-release registry the way main does for
// -synopsis (or -store when synPath is empty) and fronts it with the
// router.
func serveSingle(t *testing.T, synPath, storeDir string, ropt registry.Options, opt server.Options) (*registry.Registry, *server.Multi) {
	t.Helper()
	reg, err := openSingle(context.Background(), synPath, storeDir, ropt)
	if err != nil {
		t.Fatalf("openSingle: %v", err)
	}
	t.Cleanup(reg.Close)
	opt.Logger = log.New(io.Discard, "", 0)
	return reg, server.NewMulti(reg, singleRelease, opt)
}

// TestServeSmoke drives the command's own plumbing end to end: load a
// published synopsis from disk as the one-release registry main builds
// for -synopsis, front it with the router, and answer health,
// readiness, marginal, stats and release-listing queries over a real
// TCP socket.
func TestServeSmoke(t *testing.T) {
	_, handler := serveSingle(t, buildSynopsisFile(t), "", quietOpts(), server.Options{MaxK: 8})
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})

	base := "http://" + ln.Addr().String()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: status %d, body %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz: status %d, body %q", code, body)
	}
	if code, body := get("/v1/marginal?attrs=0,1"); code != http.StatusOK {
		t.Errorf("/v1/marginal: status %d, body %q", code, body)
	}
	// Same query again: served from the cache, visible in /v1/stats.
	if code, body := get("/v1/marginal?attrs=0,1"); code != http.StatusOK {
		t.Errorf("/v1/marginal repeat: status %d, body %q", code, body)
	}
	code, body := get("/v1/stats")
	if code != http.StatusOK {
		t.Errorf("/v1/stats: status %d, body %q", code, body)
	}
	for _, want := range []string{`"name":"default"`, `"loaded":true`, `"cache":true`, `"cache_stats":{"hits":1,"misses":1,`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/stats body %q missing %s", body, want)
		}
	}
	if code, body := get("/v1/releases"); code != http.StatusOK || !strings.Contains(body, `{"default":"default","releases":["default"]}`) {
		t.Errorf("/v1/releases: status %d, body %q", code, body)
	}
}

// TestCacheConfigDisabled: a cache entry bound ≤ 0 serves the synopsis
// bare.
func TestCacheConfigDisabled(t *testing.T) {
	ropt := quietOpts()
	ropt.CacheEntries = orDisabled(0)
	ropt.CacheBytes = orDisabled64(0)
	reg, _ := serveSingle(t, buildSynopsisFile(t), "", ropt, server.Options{})
	if st := reg.Stats()[0]; !st.Loaded || st.Cache {
		t.Errorf("disabled cache: stats = %+v, want a loaded release with no cache", st)
	}
}

func TestLoadSynopsisMissingFile(t *testing.T) {
	if _, err := openSingle(context.Background(), filepath.Join(t.TempDir(), "nope.json"), "", quietOpts()); err == nil {
		t.Fatal("opening a missing synopsis file should fail")
	}
}

// TestOrDisabled pins the flag convention: every value ≤ 0 maps to the
// registry's "disabled" (negative), never to its "default" (zero).
func TestOrDisabled(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-5, -1}, {-1, -1}, {0, -1}, {1, 1}, {64, 64},
	} {
		if got := orDisabled(tc.in); got != tc.want {
			t.Errorf("orDisabled(%d) = %d, want %d", tc.in, got, tc.want)
		}
		if got := orDisabled64(int64(tc.in)); got != int64(tc.want) {
			t.Errorf("orDisabled64(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestMain lets the startup tests run the real main in a child
// process: with PRIVIEW_SERVE_ARGS set, the test binary is the command.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PRIVIEW_SERVE_ARGS"); ok {
		os.Args = append([]string{"priview-serve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns its
// exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "PRIVIEW_SERVE_ARGS="+strings.Join(args, " "))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("running the command: %v", err)
		return 0, ""
	}
}

// TestStartupRejectsBadConfig: a non-positive admission target is a
// usage error (exit 2), and a missing or corrupt synopsis or store fails
// startup (exit 1) before anything listens.
func TestStartupRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := buildSynopsisFile(t)
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-synopsis", good, "-admission-target-delay", "0"}, 2, "-admission-target-delay must be > 0"},
		{[]string{"-synopsis", good, "-admission-target-delay", "-1ms"}, 2, "-admission-target-delay must be > 0"},
		{[]string{"-synopsis", filepath.Join(dir, "nope.json")}, 1, "nope.json"},
		{[]string{"-synopsis", corrupt}, 1, "load failed"},
		{[]string{"-store", filepath.Join(dir, "empty-store")}, 1, "no snapshots"},
	} {
		code, stderr := runMain(t, append(tc.args, "-addr", "127.0.0.1:0")...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr, tc.code, tc.msg)
		}
	}
}

// gatedHandler holds marginal requests until released, signalling when
// the first one arrives, so the shutdown test can deterministically
// have a query in flight while the server drains.
type gatedHandler struct {
	http.Handler
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/marginal") {
		g.once.Do(func() { close(g.arrived) })
		<-g.release
	}
	g.Handler.ServeHTTP(w, r)
}

// TestGracefulShutdownDrains proves the drain semantics: on shutdown
// the health probe flips to 503 while the listener still answers, an
// in-flight marginal query runs to completion rather than being cut,
// and Serve returns http.ErrServerClosed.
func TestGracefulShutdownDrains(t *testing.T) {
	_, handler := serveSingle(t, buildSynopsisFile(t), "", quietOpts(), server.Options{MaxK: 8, QueryTimeout: 30 * time.Second})
	gated := &gatedHandler{Handler: handler, arrived: make(chan struct{}), release: make(chan struct{})}
	srv := &http.Server{Handler: gated, ReadHeaderTimeout: 5 * time.Second}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/marginal?attrs=0,1")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		inflight <- result{code: resp.StatusCode, body: string(body), err: err}
	}()

	select {
	case <-gated.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the server")
	}

	// Pre-drain: the probe reports healthy. Draining: 503, while the
	// in-flight query is still being served.
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz before drain: %v %v", resp, err)
	} else if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	handler.SetDraining(true)
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: want 503, got %v %v", resp, err)
	} else if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- shutdown(srv, handler, 10*time.Second) }()
	// Let Shutdown close the listener and start waiting on the
	// in-flight connection before releasing the gated query.
	time.Sleep(50 * time.Millisecond)
	close(gated.release)

	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	res := <-inflight
	if res.err != nil || res.code != http.StatusOK {
		t.Errorf("in-flight query not drained: code=%d err=%v body=%q", res.code, res.err, res.body)
	}
	if !strings.Contains(res.body, "cells") {
		t.Errorf("drained response is not a marginal: %q", res.body)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights(" gold = 4, best-effort=0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 || w["gold"] != 4 || w["best-effort"] != 0.5 {
		t.Errorf("parseWeights = %v", w)
	}
	if w, err := parseWeights(""); err != nil || w != nil {
		t.Errorf("empty list = %v, %v; want nil, nil", w, err)
	}
	for _, bad := range []string{"gold", "gold=", "gold=x", "gold=0", "gold=-1"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) accepted", bad)
		}
	}
}
