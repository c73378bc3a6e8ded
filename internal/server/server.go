// Package server exposes published PriView synopses over HTTP. Since a
// synopsis is a differentially private object, serving unlimited
// marginal queries from it costs no additional privacy budget (the
// post-processing property) — the server is a pure, stateless query
// engine suitable for public deployment.
//
// There is one serving front, Multi: named-release routes resolved
// through a Resolver (internal/registry implements it), with the legacy
// unprefixed routes aliasing a default release. A single synopsis is
// served as a registry holding one release.
//
// The serving path has an explicit failure model: per-request deadlines
// (504 on expiry), panic recovery (500 with a logged stack), a draining
// state that flips /healthz and /readyz to 503 so load balancers stop
// routing to an instance that is shutting down, and — when
// Options.Admission is set — the adaptive admission controller from
// internal/admission: a bounded queue absorbs bursts, CoDel-style
// sojourn control sheds from the queue (429 + Retry-After) when delay
// stands above target, an AIMD search adapts the concurrency limit to
// the latency gradient, and requests arriving with less remaining
// deadline (propagated via X-Priview-Deadline-Ms) than the method's
// expected service time are fast-failed instead of admitted.
// Options.Brownout additionally degrades non-priority traffic to
// cache-hits-only under sustained overload.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/marginal"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// Querier is the synopsis surface the server serves. *core.Synopsis
// implements it; tests substitute slow or faulty implementations to
// exercise the failure model without a slow real reconstruction.
type Querier interface {
	// QueryMethodContext reconstructs the marginal over attrs with the
	// given estimator, honoring ctx cancellation (see core.Synopsis).
	QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error)
	Epsilon() float64
	Total() float64
	Views() []*marginal.Table
	Design() *covering.Design
}

// statusClientClosedRequest is the nginx-convention status for requests
// abandoned by the client; the response is never seen, the code exists
// for access logs and metrics.
const statusClientClosedRequest = 499

// Options configures the failure model around the query path. The zero
// value disables deadlines and admission control, matching the bare
// handler.
type Options struct {
	// MaxK bounds the marginal size a single request may ask for (≤ 0
	// selects the default of 12).
	MaxK int
	// QueryTimeout is the per-request reconstruction deadline; requests
	// exceeding it fail with 504. ≤ 0 disables the deadline.
	QueryTimeout time.Duration
	// RetryAfter is the hint written on draining probes, deadline
	// fast-fails and brownout refusals (default 1s, rounded up to whole
	// seconds as the header requires); admission sheds carry the
	// controller's own queue-depth-scaled hint.
	RetryAfter time.Duration
	// MaxBatch bounds the queries one POST /v1/marginals request may
	// carry (≤ 0 selects the default of 256).
	MaxBatch int
	// BatchWorkers bounds the solver goroutines one batch may fan over
	// (core.BatchOptions.Workers); ≤ 0 selects GOMAXPROCS.
	BatchWorkers int
	// Admission, when non-nil, gates the marginal routes behind the
	// adaptive admission controller (bounded queue + CoDel sojourn
	// control + AIMD concurrency limit; shed requests get 429 +
	// Retry-After). nil admits everything.
	Admission *admission.Config
	// Brownout, when non-nil (and Admission set), serves non-priority
	// traffic from cache hits only under sustained overload.
	Brownout *admission.BrownoutConfig
	// Telemetry is the metrics registry GET /metrics serves and every
	// subsystem counter registers into. nil gets a fresh private
	// registry, so /metrics always answers; pass a shared registry to
	// fold the server's series into a process-wide scrape surface.
	Telemetry *telemetry.Registry
	// SlowQuery, when > 0, logs a structured slow-query line — with the
	// request's per-stage timings — for any marginal request whose
	// total serving time exceeds it, and counts it in
	// priview_slow_queries_total. ≤ 0 disables the log.
	SlowQuery time.Duration
	// Logger receives panic stacks and response-encoding failures
	// (default log.Default()).
	Logger *log.Logger
}

// recovered converts handler panics into 500s with a logged stack.
// Panics are internal failures; without this they would tear down the
// whole connection (net/http's default) or, worse, be mislabeled as
// client errors.
func recovered(logger *log.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				logger.Printf("server: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// retryAfterSeconds renders a duration as the whole-seconds string the
// Retry-After header requires, rounding up so the hint never undershoots.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// infoResponse describes the published synopsis.
type infoResponse struct {
	Epsilon float64 `json:"epsilon"`
	Total   float64 `json:"total"`
	D       int     `json:"d"`
	Design  string  `json:"design"`
	Views   int     `json:"views"`
	MaxK    int     `json:"max_k"`
}

// serveInfo answers an info request from q, the resolved release.
func serveInfo(w http.ResponseWriter, r *http.Request, q Querier, maxK int, logger *log.Logger) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := infoResponse{
		Epsilon: q.Epsilon(),
		Total:   q.Total(),
		Views:   len(q.Views()),
		MaxK:    maxK,
	}
	if dg := q.Design(); dg != nil {
		resp.D = dg.D
		resp.Design = dg.Name()
	}
	writeJSON(w, logger, resp)
}

// marginalResponse is a reconstructed marginal table. Degraded marks
// answers produced by the numerical fallback chain (a poisoned view or
// an unstable solver was bypassed); the cells are finite and usable but
// may come from a different estimator than requested.
type marginalResponse struct {
	Attrs    []int     `json:"attrs"`
	Method   string    `json:"method"`
	Total    float64   `json:"total"`
	Cells    []float64 `json:"cells"`
	Degraded bool      `json:"degraded,omitempty"`
}

// serveEnv carries the serving context serveMarginal needs beyond the
// Querier itself, assembled from the router's options.
type serveEnv struct {
	maxK   int
	logger *log.Logger
	svc    *admission.ServiceTime // nil = no service-time tracking
	tel    *Metrics               // nil = no telemetry (bare handler tests)
	slow   time.Duration          // slow-query log threshold; ≤ 0 disables
}

// serveMarginal validates, reconstructs and answers one marginal query
// against q, the resolved release.
func serveMarginal(w http.ResponseWriter, r *http.Request, q Querier, env serveEnv) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	attrs, err := parseAttrs(r.URL.Query().Get("attrs"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(attrs) > env.maxK {
		http.Error(w, fmt.Sprintf("at most %d attributes per query", env.maxK), http.StatusBadRequest)
		return
	}
	if dg := q.Design(); dg != nil {
		for _, a := range attrs {
			if a < 0 || a >= dg.D {
				http.Error(w, fmt.Sprintf("attribute %d out of range (d=%d)", a, dg.D), http.StatusBadRequest)
				return
			}
		}
	}
	method, ok := parseMethod(r.URL.Query().Get("method"))
	if !ok {
		http.Error(w, "unknown method (want CME, CLN, LP, CLP or CME-dual)", http.StatusBadRequest)
		return
	}
	// Input is validated; from here every failure is the server's, not
	// the client's. Panics propagate to the recovery middleware (500).
	// The trace rides the context down through qcache and core, which
	// record their stage timings into it.
	ctx, tr := telemetry.StartTrace(r.Context())
	start := time.Now()
	table, err := q.QueryMethodContext(ctx, attrs, method)
	if err == nil || errors.Is(err, reconstruct.ErrNumerical) {
		// Only completed solves feed the estimate; a timed-out query
		// measures its own truncation, not the method's service time.
		if env.svc != nil {
			env.svc.Observe(int(method), time.Since(start))
		}
		if env.tel != nil {
			env.tel.observeSolve(method, time.Since(start))
		}
	}
	if env.tel != nil {
		defer env.tel.finishTrace(tr, env.logger, env.slow, r.URL.Path, func() string {
			return fmt.Sprintf("attrs=%v method=%s", attrs, method)
		})
	}
	switch {
	case err == nil && table != nil:
		writeJSON(w, env.logger, marginalResponse{
			Attrs:  table.Attrs,
			Method: method.String(),
			Total:  table.Total(),
			Cells:  table.Cells,
		})
	case errors.Is(err, reconstruct.ErrNumerical) && table != nil:
		// The numerical fallback chain produced a finite answer; serve
		// it (marked degraded) rather than failing the query.
		env.logger.Printf("server: query attrs=%v method=%s degraded: %v", attrs, method, err)
		writeJSON(w, env.logger, marginalResponse{
			Attrs:    table.Attrs,
			Method:   method.String(),
			Total:    table.Total(),
			Cells:    table.Cells,
			Degraded: true,
		})
	case errors.Is(err, reconstruct.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		w.WriteHeader(statusClientClosedRequest)
	default:
		env.logger.Printf("server: query attrs=%v method=%s failed: %v", attrs, method, err)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// parseMethod resolves the method query parameter to an estimator. All
// five Fig. 3 estimators implemented by core are accepted; matching is
// case-insensitive and CME-dual is also spellable without the hyphen.
func parseMethod(raw string) (core.ReconstructMethod, bool) {
	switch strings.ToUpper(raw) {
	case "", "CME":
		return core.CME, true
	case "CLN":
		return core.CLN, true
	case "LP":
		return core.LP, true
	case "CLP":
		return core.CLP, true
	case "CMEDUAL", "CME-DUAL":
		return core.CMEDual, true
	}
	return core.CME, false
}

func parseAttrs(raw string) ([]int, error) {
	if raw == "" {
		return nil, fmt.Errorf("attrs parameter is required (comma-separated indices)")
	}
	parts := strings.Split(raw, ",")
	attrs := make([]int, 0, len(parts))
	seen := map[int]bool{}
	for _, p := range parts {
		a, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad attribute %q", p)
		}
		if seen[a] {
			return nil, fmt.Errorf("duplicate attribute %d", a)
		}
		seen[a] = true
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	return attrs, nil
}

func writeJSON(w http.ResponseWriter, logger *log.Logger, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The 200 header and part of the body may already be on the
		// wire, so a late http.Error would interleave an error string
		// into a JSON stream; logging is the only safe action.
		logger.Printf("server: encoding response: %v", err)
	}
}
