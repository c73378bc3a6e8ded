package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"time"

	"priview/internal/attrset"
	"priview/internal/core"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// BatchQuerier is the batched query surface: answer many marginal
// requests in one call, deduplicating identical requests and sharing
// solver precompute across them. *core.Synopsis implements it; wrappers
// (CachedQuerier, registry leases) forward it explicitly.
type BatchQuerier interface {
	QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error)
}

// DefaultMethoder is implemented by Queriers that carry a configured
// default estimator (core.Synopsis does, via Config.Method). The warm
// path and the batch handler consult it so "no method named" means the
// synopsis's own default, not a hardcoded CME.
type DefaultMethoder interface {
	DefaultMethod() core.ReconstructMethod
}

// defaultMethod resolves the estimator used when a request names none:
// the querier's configured default when it exposes one, else CME (the
// paper's proposed method and core's zero-value default).
func defaultMethod(q Querier) core.ReconstructMethod {
	if dm, ok := q.(DefaultMethoder); ok {
		return dm.DefaultMethod()
	}
	return core.CME
}

// queryBatch answers reqs against q — natively when q implements
// BatchQuerier, else via the sequential fallback — so every call site
// serves both real synopses and minimal test Queriers.
func queryBatch(ctx context.Context, q Querier, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	if bq, ok := q.(BatchQuerier); ok {
		return bq.QueryBatch(ctx, reqs, opt)
	}
	return QueryBatchSequential(ctx, q, reqs)
}

// QueryBatchSequential answers reqs with a plain QueryMethodContext
// loop: no deduplication, no shared precompute, no parallelism. It is
// the semantic baseline QueryBatch is measured against (the two must
// agree bit-for-bit) and the fallback for Queriers that cannot batch.
// A request failing without a table — cancellation, or an internal
// failure of a non-core Querier — fails the whole batch, matching
// QueryBatch's no-partial-results contract.
func QueryBatchSequential(ctx context.Context, q Querier, reqs []core.BatchRequest) ([]core.BatchResult, error) {
	out := make([]core.BatchResult, len(reqs))
	for i, r := range reqs {
		t, err := q.QueryMethodContext(ctx, r.Attrs, r.Method)
		if t == nil {
			if err == nil {
				err = fmt.Errorf("server: querier returned no table for attrs %v", r.Attrs)
			}
			return nil, err
		}
		out[i] = core.BatchResult{Table: t, Err: err}
	}
	return out, nil
}

// maxMarginalsBody bounds the request body of POST /v1/marginals; a
// batch of MaxBatch queries over MaxK attributes fits in a small
// fraction of this.
const maxMarginalsBody = 1 << 20

// marginalsQuery is one query inside a batched request.
type marginalsQuery struct {
	Attrs  []int  `json:"attrs"`
	Method string `json:"method,omitempty"`
}

// marginalsRequest is the POST /v1/marginals body. Method is the
// default estimator for queries that name none; empty means the served
// synopsis's configured default.
type marginalsRequest struct {
	Queries []marginalsQuery `json:"queries"`
	Method  string           `json:"method,omitempty"`
}

// marginalsResponse answers a batch: one marginalResponse per query, in
// request order.
type marginalsResponse struct {
	Results []marginalResponse `json:"results"`
}

// batchErrorItem locates one invalid query inside a rejected batch.
type batchErrorItem struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// batchErrorResponse is the 400 body for an invalid batch: a summary
// plus one entry per offending index, so a client fixes every problem
// in one round trip instead of peeling them off a bare 400 one at a
// time.
type batchErrorResponse struct {
	Error  string           `json:"error"`
	Errors []batchErrorItem `json:"errors"`
}

// batchEnv extends serveEnv with the batch handler's knobs. ov may be
// nil in tests that drive the handler bare.
type batchEnv struct {
	serveEnv
	ov       *overload
	maxBatch int
	workers  int // QueryBatch worker bound; ≤ 0 = GOMAXPROCS
}

// parseBatch validates and canonicalizes a decoded batch against q,
// collecting every per-index problem instead of stopping at the first.
// The returned requests are only meaningful when items is empty.
func parseBatch(req marginalsRequest, q Querier, maxK int) ([]core.BatchRequest, []batchErrorItem) {
	defMethod := defaultMethod(q)
	if req.Method != "" {
		m, ok := parseMethod(req.Method)
		if !ok {
			return nil, []batchErrorItem{{Index: -1, Error: fmt.Sprintf("unknown default method %q (want CME, CLN, LP, CLP or CME-dual)", req.Method)}}
		}
		defMethod = m
	}
	dg := q.Design()
	reqs := make([]core.BatchRequest, len(req.Queries))
	var items []batchErrorItem
	bad := func(i int, format string, args ...interface{}) {
		items = append(items, batchErrorItem{Index: i, Error: fmt.Sprintf(format, args...)})
	}
	for i, query := range req.Queries {
		if len(query.Attrs) == 0 {
			bad(i, "attrs is required")
			continue
		}
		set, err := attrset.FromAttrs(query.Attrs)
		if err != nil {
			// The typed attrset errors (ErrRange, ErrDuplicate) name the
			// offending attribute themselves.
			bad(i, "%v", err)
			continue
		}
		if set.Card() > maxK {
			bad(i, "at most %d attributes per query", maxK)
			continue
		}
		if dg != nil {
			out := false
			set.ForEach(func(a int) {
				if a >= dg.D {
					out = true
				}
			})
			if out {
				bad(i, "attribute out of range (d=%d)", dg.D)
				continue
			}
		}
		method := defMethod
		if query.Method != "" {
			m, ok := parseMethod(query.Method)
			if !ok {
				bad(i, "unknown method %q (want CME, CLN, LP, CLP or CME-dual)", query.Method)
				continue
			}
			method = m
		}
		reqs[i] = core.BatchRequest{Attrs: set.Attrs(), Method: method}
	}
	return reqs, items
}

// writeBatchError answers an invalid batch with the per-index 400 body.
func writeBatchError(w http.ResponseWriter, logger *log.Logger, items []batchErrorItem) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	resp := batchErrorResponse{
		Error:  fmt.Sprintf("invalid batch: %d invalid queries", len(items)),
		Errors: items,
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		logger.Printf("server: encoding batch error response: %v", err)
	}
}

// uniqueSolves counts the distinct (attribute set, method) pairs in
// reqs — the work QueryBatch actually performs after deduplication —
// and the distinct methods present, for the deadline gate and the
// service-time observation.
func uniqueSolves(reqs []core.BatchRequest) (n int, methods map[core.ReconstructMethod]bool) {
	type key struct {
		mask   attrset.Set
		method core.ReconstructMethod
	}
	seen := make(map[key]bool, len(reqs))
	methods = make(map[core.ReconstructMethod]bool)
	for _, r := range reqs {
		k := key{mask: attrset.MustFromAttrs(r.Attrs), method: r.Method}
		if !seen[k] {
			seen[k] = true
			n++
			methods[r.Method] = true
		}
	}
	return n, methods
}

// serveMarginals validates, solves and answers one batched marginal
// request against q, the resolved release.
//
// The deadline gate lives here rather than in the deadlined middleware:
// a batch's expected service time scales with its deduplicated size
// divided by the solver parallelism, which is only known after the body
// is parsed — gating a 200-query batch against one query's EWMA would
// admit doomed batches, and the converse would 504 every batch a single
// query's estimate happens to exceed.
func serveMarginals(w http.ResponseWriter, r *http.Request, q Querier, env batchEnv) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMarginalsBody+1))
	if err != nil {
		http.Error(w, "reading request body", http.StatusBadRequest)
		return
	}
	if len(body) > maxMarginalsBody {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	var req marginalsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "queries is required (non-empty array)", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > env.maxBatch {
		http.Error(w, fmt.Sprintf("at most %d queries per batch", env.maxBatch), http.StatusBadRequest)
		return
	}
	reqs, items := parseBatch(req, q, env.maxK)
	if len(items) > 0 {
		writeBatchError(w, env.logger, items)
		return
	}
	workers := env.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n, methods := uniqueSolves(reqs)
	if env.svc != nil {
		// Size-scaled deadline gate: the batch needs ~(sum of per-solve
		// estimates) / workers of wall clock; a budget below that is
		// doomed and fast-fails like the single-query gate.
		var est time.Duration
		for _, br := range reqs {
			est += env.svc.Estimate(int(br.Method))
		}
		need := est / time.Duration(workers)
		if deadline, ok := r.Context().Deadline(); ok && need > 0 {
			if remain := time.Until(deadline); remain < need {
				if env.ov != nil {
					env.ov.deadlineRejected.Add(1)
					w.Header().Set("Retry-After", retryAfterSeconds(env.ov.opt.RetryAfter))
				}
				http.Error(w, fmt.Sprintf("remaining deadline %v below expected batch service time %v (%d solves)",
					remain.Round(time.Millisecond), need.Round(time.Millisecond), n),
					http.StatusGatewayTimeout)
				return
			}
		}
	}
	// Input is validated; from here every failure is the server's, not
	// the client's (solver-level validation cannot fire: the parse above
	// is strictly stricter). The trace rides the context down through
	// qcache and core, which record their stage timings into it.
	ctx, tr := telemetry.StartTrace(r.Context())
	if env.tel != nil {
		defer env.tel.finishTrace(tr, env.logger, env.slow, r.URL.Path, func() string {
			return fmt.Sprintf("batch=%d solves=%d", len(reqs), n)
		})
	}
	start := time.Now()
	results, err := queryBatch(ctx, q, reqs, core.BatchOptions{Workers: env.workers})
	if err != nil {
		var be *core.BatchError
		switch {
		case errors.As(err, &be):
			items := make([]batchErrorItem, len(be.Items))
			for i, it := range be.Items {
				items[i] = batchErrorItem{Index: it.Index, Error: it.Err.Error()}
			}
			writeBatchError(w, env.logger, items)
		case errors.Is(err, reconstruct.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
			http.Error(w, "batch deadline exceeded", http.StatusGatewayTimeout)
		case errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, context.Canceled):
			w.WriteHeader(statusClientClosedRequest)
		default:
			env.logger.Printf("server: batch of %d failed: %v", len(reqs), err)
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
		return
	}
	if (env.svc != nil || env.tel != nil) && n > 0 {
		// Normalize the batch's wall clock back to a per-solve service
		// time so batches and singles feed one EWMA: n solves across w
		// workers take ~n/w solve-times of wall clock. The solve-time
		// histograms get the same normalized value for the same reason.
		weff := workers
		if weff > n {
			weff = n
		}
		perSolve := time.Duration(int64(time.Since(start)) * int64(weff) / int64(n))
		for m := range methods {
			if env.svc != nil {
				env.svc.Observe(int(m), perSolve)
			}
			if env.tel != nil {
				env.tel.observeSolve(m, perSolve)
			}
		}
	}
	resp := marginalsResponse{Results: make([]marginalResponse, len(results))}
	degraded := 0
	for i, res := range results {
		resp.Results[i] = marginalResponse{
			Attrs:    res.Table.Attrs,
			Method:   reqs[i].Method.String(),
			Total:    res.Table.Total(),
			Cells:    res.Table.Cells,
			Degraded: res.Degraded(),
		}
		if res.Degraded() {
			degraded++
		}
	}
	if degraded > 0 {
		env.logger.Printf("server: batch of %d answered with %d degraded members", len(reqs), degraded)
	}
	writeJSON(w, env.logger, resp)
}
