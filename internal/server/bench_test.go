package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/noise"
	"priview/internal/qcache"
)

// benchServerSynopsis builds a d=32 release whose 8-way query needs a
// real reconstruction solve, mirroring the qcache package benchmarks at
// the HTTP layer.
func benchServerSynopsis(b *testing.B) *core.Synopsis {
	b.Helper()
	data := synth.Kosarak(20000, 42)
	dg := covering.Best(32, 8, 2, 1, 2)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(43))
}

const benchServerPath = "/v1/marginal?attrs=0,4,9,13,17,22,26,30"

func benchMarginal(b *testing.B, handler *Multi) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, benchServerPath, nil)
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerMarginalUncached is the serving path before this
// change: every request re-runs the solve.
func BenchmarkServerMarginalUncached(b *testing.B) {
	handler := serveOne(benchServerSynopsis(b), Options{})
	b.ReportAllocs()
	b.ResetTimer()
	benchMarginal(b, handler)
}

// BenchmarkServerMarginalCached is the full stack — mux, middleware,
// CachedQuerier, JSON encoding — in cache steady state. The residual
// cost is HTTP + JSON, not reconstruction.
func BenchmarkServerMarginalCached(b *testing.B) {
	cq := NewCachedQuerier(benchServerSynopsis(b), qcache.New(1024, 64<<20))
	handler := serveOne(cq, Options{})
	// Warm the one hot key.
	req := httptest.NewRequest(http.MethodGet, benchServerPath, nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm status = %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	benchMarginal(b, handler)
	b.StopTimer()
	st, _ := cq.CacheStats()
	if st.Misses != 1 {
		b.Fatalf("stats = %+v, want exactly the warming miss", st)
	}
}
