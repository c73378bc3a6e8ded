package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priview"
	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
)

// buildSyn returns a small synopsis with a seed-dependent content.
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

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestStoreModeServesNewestSnapshot exercises -store end to end:
// loading picks the newest snapshot, and the audit gate runs.
func TestStoreModeServesNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := buildSyn(t, 2)
	if _, err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	reg, handler := serveSingle(t, "", dir, quietOpts(), server.Options{MaxK: 6})
	if got := reg.Stats()[0].Snapshot; got != "snapshot-000002.json" {
		t.Fatalf("loaded %s, want the newest snapshot", got)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	var info struct {
		Total float64 `json:"total"`
	}
	if code := getJSON(t, srv.URL+"/v1/info", &info); code != http.StatusOK {
		t.Fatalf("/v1/info = %d", code)
	}
	if math.Abs(info.Total-want.Total()) > 1e-9 {
		t.Fatalf("total %v, want %v", info.Total, want.Total())
	}
}

// cacheStats reads the one release's cache counters.
func cacheStats(t *testing.T, reg *registry.Registry) registry.ReleaseStats {
	t.Helper()
	st := reg.Stats()[0]
	if !st.Cache {
		t.Fatalf("release serves without a cache: %+v", st)
	}
	return st
}

// TestHotReloadKeepsServingThroughCorruption is the serving half of the
// durability contract: a SIGHUP-triggered rescan that encounters a
// corrupt newest snapshot falls back to the good one; a rescan with the
// whole store corrupted fails without touching the served synopsis; a
// rescan with nothing changed keeps the cache. At no point does any
// query fail.
func TestHotReloadKeepsServingThroughCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	first := buildSyn(t, 3)
	if _, err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	// Serve with the query cache on, the default deployment: each reload
	// must wrap the new synopsis in a fresh cache.
	reg, handler := serveSingle(t, "", dir, quietOpts(), server.Options{MaxK: 6})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	ctx := context.Background()

	failed := 0
	query := func() (total float64) {
		t.Helper()
		var body struct {
			Total float64   `json:"total"`
			Cells []float64 `json:"cells"`
		}
		if code := getJSON(t, srv.URL+"/v1/marginal?attrs=0,1", &body); code != http.StatusOK {
			failed++
			t.Errorf("query failed with status %d", code)
		}
		return body.Total
	}
	query()
	query()

	// A rescan with nothing changed is a no-op: the cache keeps its
	// entry and counters.
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if cs := cacheStats(t, reg).CacheStats; cs.Entries != 1 || cs.Hits != 1 {
		t.Fatalf("cache after an idle rescan = %+v, want the 1 entry and 1 hit kept", cs)
	}

	// Publish a second synopsis and hot-reload: new total served.
	second := buildSyn(t, 4)
	secondPath, err := st.Save(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if got := query(); math.Abs(got-second.Total()) > 1e-6 {
		t.Fatalf("after reload total = %v, want %v", got, second.Total())
	}
	// The reloaded synopsis answers from a fresh cache — the new total
	// above proves nothing was inherited — that the warm handoff and
	// the query fill with one solve of the one hot key.
	if cs := cacheStats(t, reg).CacheStats; cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cache after reload = %+v, want a fresh cache with 1 miss", cs)
	}

	// Corrupt the newest snapshot and publish a third whose newest-name
	// forces a reload; the corrupt one must be skipped.
	if err := os.WriteFile(secondPath, []byte(`{"format":"priview-synopsis-v2","checksum":"sha256:00","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	thirdPath, err := st.Save(buildSyn(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(thirdPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatalf("rescan with fallback available: %v", err)
	}
	if got := query(); math.Abs(got-first.Total()) > 1e-6 {
		t.Fatalf("after corrupt reload total = %v, want fallback %v", got, first.Total())
	}
	for _, p := range []string{secondPath, thirdPath} {
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("corrupt snapshot not quarantined: %v", err)
		}
	}

	// Corrupt everything and publish a newer name; the reload fails but
	// the last good synopsis keeps serving.
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot-000009.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if rs := reg.Stats()[0]; rs.ReloadFailures != 1 {
		t.Fatalf("reload_failures = %d, want 1 (stats %+v)", rs.ReloadFailures, rs)
	}
	if got := query(); math.Abs(got-first.Total()) > 1e-6 {
		t.Fatalf("after failed reload total = %v, want unchanged %v", got, first.Total())
	}
	if failed != 0 {
		t.Fatalf("%d queries failed across the corruption sequence, want 0", failed)
	}
}

// TestSynopsisFileModeReloadsOnChange is the SIGHUP contract for
// -synopsis: a rescan after the file is rewritten serves the new
// synopsis, a rescan with the file untouched keeps the cache, and a
// rescan after the file is corrupted keeps the last good synopsis.
func TestSynopsisFileModeReloadsOnChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syn.json")
	first := buildSyn(t, 6)
	if err := snapshot.WriteFile(snapshot.OS{}, path, first); err != nil {
		t.Fatal(err)
	}
	reg, handler := serveSingle(t, path, "", quietOpts(), server.Options{MaxK: 6})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	ctx := context.Background()
	query := func() float64 {
		t.Helper()
		var body struct {
			Total float64 `json:"total"`
		}
		if code := getJSON(t, srv.URL+"/v1/marginal?attrs=0,1", &body); code != http.StatusOK {
			t.Fatalf("query failed with status %d", code)
		}
		return body.Total
	}
	query()
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if cs := cacheStats(t, reg).CacheStats; cs.Entries != 1 {
		t.Fatalf("cache after an idle rescan = %+v, want its entry kept", cs)
	}

	second := buildSyn(t, 7)
	if err := snapshot.WriteFile(snapshot.OS{}, path, second); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := query(); math.Abs(got-second.Total()) > 1e-6 {
		t.Fatalf("after rewrite total = %v, want %v", got, second.Total())
	}

	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := query(); math.Abs(got-second.Total()) > 1e-6 {
		t.Fatalf("after corrupt rewrite total = %v, want last good %v", got, second.Total())
	}
	if rs := reg.Stats()[0]; rs.Reloads != 1 || rs.ReloadFailures != 1 {
		t.Fatalf("reloads = %d, reload_failures = %d; want 1 and 1", rs.Reloads, rs.ReloadFailures)
	}
}

// TestLoadSynopsisRefusesAuditFailure proves the startup audit gate: a
// structurally valid file whose views are mutually inconsistent is
// refused.
func TestLoadSynopsisRefusesAuditFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	// Views disagree on attribute 1's marginal: 30/10 vs 20/20.
	doc := `{"format":"priview-synopsis-v1","epsilon":1,"total":40,"views":[` +
		`{"attrs":[0,1],"cells":[15,15,5,5]},{"attrs":[1,2],"cells":[10,10,10,10]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSingle(context.Background(), path, "", quietOpts()); err == nil {
		t.Fatal("openSingle served an audit-failing synopsis")
	}
}

// TestLoadSynopsisAcceptsV2 proves the file mode reads the checksummed
// container.
func TestLoadSynopsisAcceptsV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syn.json")
	if err := snapshot.WriteFile(snapshot.OS{}, path, buildSyn(t, 5)); err != nil {
		t.Fatal(err)
	}
	reg, err := openSingle(context.Background(), path, "", quietOpts())
	if err != nil {
		t.Fatalf("v2 snapshot rejected: %v", err)
	}
	reg.Close()
}

// TestReloadRaceServesCleanly is the hot-reload race proof behind the
// SIGHUP contract: 12 query workers hammer the full middleware stack
// (recovery, per-request deadline; no admission control, so every
// answer must be a real 200) while the main goroutine rescans the store
// 30 times, half of them onto a freshly published snapshot. Run under
// -race this doubles as the data-race check on the swap/cache
// handoff; any non-200 — a 5xx from a torn swap most of all — fails.
func TestReloadRaceServesCleanly(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, 10)); err != nil {
		t.Fatal(err)
	}
	reg, handler := serveSingle(t, "", dir, quietOpts(), server.Options{
		MaxK:         6,
		QueryTimeout: 10 * time.Second,
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/v1/marginal?attrs=%d,%d", (w+i)%6, (w+i+1+i%5)%6)
				if (w+i)%7 == 0 {
					path = "/v1/stats"
				}
				resp, err := client.Get(srv.URL + path)
				if err != nil {
					bad.Add(1)
					t.Errorf("worker %d: %v", w, err)
					return
				}
				//lint:ignore errdiscard draining a test response body
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
					t.Errorf("worker %d: %s = %d, want 200", w, path, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			if _, err := st.Save(buildSyn(t, int64(20+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.Reconcile(ctx); err != nil {
			t.Fatalf("rescan %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d queries failed across 30 hot reloads, want 0", n)
	}
	if rs := reg.Stats()[0]; rs.Reloads != 15 {
		t.Errorf("reloads = %d, want 15 (one per published snapshot)", rs.Reloads)
	}
}
