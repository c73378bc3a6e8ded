package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
)

// countingQuerier wraps a Querier counting how many queries reach it.
type countingQuerier struct {
	Querier
	calls atomic.Int64
}

func (c *countingQuerier) QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error) {
	c.calls.Add(1)
	return c.Querier.QueryMethodContext(ctx, attrs, method)
}

func cachedTestSetup(t *testing.T) (*CachedQuerier, *countingQuerier, *core.Synopsis) {
	t.Helper()
	data := synth.MSNBC(3000, 5)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(6))
	counting := &countingQuerier{Querier: syn}
	return NewCachedQuerier(counting, qcache.New(1024, 16<<20)), counting, syn
}

func TestCachedQuerierMemoizes(t *testing.T) {
	cq, counting, syn := cachedTestSetup(t)
	ctx := context.Background()
	attrs := []int{0, 4, 8}
	first, err := cq.QueryMethodContext(ctx, attrs, core.CME)
	if err != nil {
		t.Fatal(err)
	}
	first.Cells[0] = math.NaN() // caller mutation must not poison the cache
	second, err := cq.QueryMethodContext(ctx, attrs, core.CME)
	if err != nil {
		t.Fatal(err)
	}
	want := syn.Query(attrs)
	if !marginal.Equal(second, want, 1e-12) {
		t.Errorf("cached answer diverges from direct query")
	}
	if n := counting.calls.Load(); n != 1 {
		t.Errorf("%d inner queries, want 1 (memoized)", n)
	}
	// A different estimator is a different key: the solve runs again.
	if _, err := cq.QueryMethodContext(ctx, attrs, core.CLN); err != nil {
		t.Fatal(err)
	}
	if n := counting.calls.Load(); n != 2 {
		t.Errorf("%d inner queries after CLN, want 2", n)
	}
	st, enabled := cq.CacheStats()
	if !enabled {
		t.Fatal("CacheStats reports disabled")
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

func TestCachedQuerierAgreesWithDirectForAllMethods(t *testing.T) {
	cq, _, syn := cachedTestSetup(t)
	ctx := context.Background()
	attrs := []int{0, 3, 7}
	for _, m := range []core.ReconstructMethod{core.CME, core.CLN, core.LP, core.CLP, core.CMEDual} {
		// Twice: the first populates, the second must hit and agree.
		for round := 0; round < 2; round++ {
			got, err := cq.QueryMethodContext(ctx, attrs, m)
			if err != nil {
				t.Fatalf("%s round %d: %v", m, round, err)
			}
			want, err := syn.QueryMethodContext(ctx, attrs, m)
			if err != nil {
				t.Fatalf("%s direct: %v", m, err)
			}
			if !marginal.Equal(got, want, 1e-9) {
				t.Errorf("%s round %d: cached answer diverges", m, round)
			}
		}
	}
}

// erringQuerier returns a degraded answer (table + ErrNumerical) for
// every query.
type erringQuerier struct {
	Querier
	calls atomic.Int64
}

func (e *erringQuerier) QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error) {
	e.calls.Add(1)
	return marginal.Uniform(attrs, 100), &reconstruct.NumericalError{
		Solver: "maxent", Iter: 1, Quantity: "residual", Value: math.NaN(),
	}
}

func TestCachedQuerierDoesNotCacheDegraded(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	degrading := &erringQuerier{Querier: syn}
	cq := NewCachedQuerier(degrading, qcache.New(1024, 16<<20))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		got, err := cq.QueryMethodContext(ctx, []int{0, 1}, core.CME)
		if !errors.Is(err, reconstruct.ErrNumerical) {
			t.Fatalf("err = %v, want ErrNumerical passthrough", err)
		}
		if got == nil {
			t.Fatal("degraded answer not served")
		}
	}
	if n := degrading.calls.Load(); n != 3 {
		t.Errorf("%d inner queries, want 3 (degraded answers never cached)", n)
	}
}

func TestCachedQuerierBypassesUnkeyableQueries(t *testing.T) {
	_, counting, _ := cachedTestSetup(t)
	cq := NewCachedQuerier(counting, qcache.New(1024, 16<<20))
	// Duplicate attrs cannot be keyed; the query must reach the inner
	// querier untouched (where core's validation handles it).
	defer func() {
		if recover() == nil {
			t.Error("duplicate attrs did not propagate to the inner querier")
		}
	}()
	_, _ = cq.QueryMethodContext(context.Background(), []int{3, 3}, core.CME)
}

func TestWarmFillsCache(t *testing.T) {
	cq, counting, _ := cachedTestSetup(t)
	ctx := context.Background()
	warmed, skipped, err := cq.Warm(ctx, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// d=9: C(9,1) + C(9,2) = 9 + 36 = 45 marginals.
	if warmed != 45 || skipped != 0 {
		t.Errorf("warmed = (%d, %d skipped), want (45, 0)", warmed, skipped)
	}
	st, _ := cq.CacheStats()
	if st.Entries != 45 {
		t.Errorf("entries = %d, want 45", st.Entries)
	}
	before := counting.calls.Load()
	// Every ≤2-way query must now hit.
	if _, err := cq.QueryMethodContext(ctx, []int{2, 7}, core.CME); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != before {
		t.Error("warmed query still reached the solver")
	}
}

// partiallyDegradedQuerier degrades exactly the queries touching one
// poisoned attribute and answers the rest cleanly — the "one bad view"
// scenario Warm must survive.
type partiallyDegradedQuerier struct {
	Querier
	badAttr int
}

func (p *partiallyDegradedQuerier) QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error) {
	for _, a := range attrs {
		if a == p.badAttr {
			return marginal.Uniform(attrs, 100), &reconstruct.NumericalError{
				Solver: "maxent", Iter: 1, Quantity: "residual", Value: math.NaN(),
			}
		}
	}
	return p.Querier.QueryMethodContext(ctx, attrs, method)
}

// TestWarmSkipsDegradedKeys proves one poisoned view cannot leave the
// cache cold: degraded keys are counted and skipped, every clean key is
// still warmed, and the pass reports no error.
func TestWarmSkipsDegradedKeys(t *testing.T) {
	_, counting, _ := cachedTestSetup(t)
	cq := NewCachedQuerier(&partiallyDegradedQuerier{Querier: counting, badAttr: 0}, qcache.New(1024, 16<<20))
	warmed, skipped, err := cq.Warm(context.Background(), 2, 4)
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	// d=9, attribute 0 poisoned: 1 + 8 = 9 keys touch it; 45 - 9 = 36
	// warm cleanly.
	if warmed != 36 || skipped != 9 {
		t.Errorf("Warm = (%d warmed, %d skipped), want (36, 9)", warmed, skipped)
	}
	st, _ := cq.CacheStats()
	if st.Entries != 36 {
		t.Errorf("entries = %d, want 36 (all clean keys cached)", st.Entries)
	}
}

func TestWarmCanceledStopsEarly(t *testing.T) {
	cq, _, _ := cachedTestSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	warmed, _, err := cq.Warm(ctx, 3, 2)
	if !errors.Is(err, reconstruct.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if warmed != 0 {
		t.Errorf("warmed = %d with a dead context", warmed)
	}
}

func TestWarmWithoutDesign(t *testing.T) {
	_, counting, _ := cachedTestSetup(t)
	cq := NewCachedQuerier(designlessQuerier{counting}, qcache.New(8, 0))
	warmed, skipped, err := cq.Warm(context.Background(), 2, 2)
	if err != nil || warmed != 0 || skipped != 0 {
		t.Errorf("Warm without design = (%d, %d, %v), want (0, 0, nil)", warmed, skipped, err)
	}
}

type designlessQuerier struct{ Querier }

func (designlessQuerier) Design() *covering.Design { return nil }

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st struct {
		Cache      bool `json:"cache"`
		CacheStats struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache_stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache {
		t.Error("bare synopsis reports a cache")
	}

	// With a cache, as priview-serve wires it.
	cq, _, _ := cachedTestSetup(t)
	cs := serveOne(cq, Options{})
	for i := 0; i < 3; i++ {
		if rec := get(t, cs, "/v1/marginal?attrs=0,4,8"); rec.Code != http.StatusOK {
			t.Fatalf("marginal status = %d", rec.Code)
		}
	}
	rec = get(t, cs, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Cache || st.CacheStats.Misses != 1 || st.CacheStats.Hits != 2 {
		t.Errorf("stats = %+v, want cache=true, 1 miss, 2 hits", st)
	}

	// POST is not allowed.
	req := httptest.NewRequest(http.MethodPost, "/v1/stats", nil)
	recPost := httptest.NewRecorder()
	cs.ServeHTTP(recPost, req)
	if recPost.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats = %d", recPost.Code)
	}
}

// TestCachedServerRaceStress is the server-level race gate for the
// cache: concurrent identical and distinct queries through the full
// middleware stack, exercising hits, misses and singleflight
// coalescing at once. Under -race this proves the documented
// concurrency claim end to end.
func TestCachedServerRaceStress(t *testing.T) {
	cq, counting, syn := cachedTestSetup(t)
	s := serveOne(cq, Options{})
	attrSets := []string{"0,4,8", "1,5", "0,4,8", "2,6,7", "0,4,8", "3"}
	methods := []string{"CME", "CLN", "CLP", "CME-dual"}
	const workers = 12
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := "/v1/marginal?attrs=" + attrSets[(w+i)%len(attrSets)] +
					"&method=" + methods[i%len(methods)]
				rec := get(t, s, path)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, enabled := cq.CacheStats()
	if !enabled {
		t.Fatal("cache disabled")
	}
	if got := st.Hits + st.Misses + st.Coalesced; got != workers*perWorker {
		t.Errorf("hits+misses+coalesced = %d, want %d (stats %+v)", got, workers*perWorker, st)
	}
	// Distinct (attrs, method) pairs bound the solves that may run.
	distinct := int64(len(methods) * 4) // 4 distinct attr sets
	if n := counting.calls.Load(); n > distinct {
		t.Errorf("%d solves for %d distinct keys: singleflight failed to coalesce", n, distinct)
	}
	// Spot-check one answer against the synopsis directly.
	rec := get(t, s, "/v1/marginal?attrs=0,4,8&method=CLN")
	var resp struct {
		Cells []float64 `json:"cells"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := syn.QueryMethod([]int{0, 4, 8}, core.CLN)
	for i := range want.Cells {
		if math.Abs(want.Cells[i]-resp.Cells[i]) > 1e-9 {
			t.Fatalf("cached answer diverged at cell %d", i)
		}
	}
}
