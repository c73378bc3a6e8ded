package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"priview/internal/admission"
	"priview/internal/telemetry"
)

// Deadline-propagation and priority headers — the contract between
// server.Client and the serving stack.
const (
	// DeadlineHeader carries the client's remaining context budget in
	// whole milliseconds. The server arms min(propagated, QueryTimeout)
	// as the request deadline, so work the client has already given up
	// on is never solved to completion server-side.
	DeadlineHeader = "X-Priview-Deadline-Ms"
	// PriorityHeader marks a request's traffic class; the value
	// PriorityHigh exempts it from brownout degradation.
	PriorityHeader = "X-Priview-Priority"
	// PriorityHigh is the PriorityHeader value for priority traffic.
	PriorityHigh = "high"
)

// maxPropagatedDeadline caps what a client header may arm, so a corrupt
// or hostile header cannot schedule absurdly long-lived requests.
const maxPropagatedDeadline = time.Hour

// parseDeadlineMs reads a DeadlineHeader value: positive whole
// milliseconds, capped at maxPropagatedDeadline. ok is false for absent
// or malformed values — the request then runs under the server's own
// QueryTimeout alone, exactly as if no header had been sent.
func parseDeadlineMs(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxPropagatedDeadline {
		d = maxPropagatedDeadline
	}
	return d, true
}

// overload bundles the router's overload-control machinery: the
// adaptive admission controller (nil when Options.Admission is unset),
// the per-method service-time EWMA feeding the deadline gate, and the
// brownout detector. The counters are the middleware-owned half of the
// admission.Stats snapshot; they start standalone and
// Metrics.instrumentOverload swaps them for registry-backed series
// before traffic, so /metrics and the JSON stats read one set of
// numbers.
type overload struct {
	opt   Options
	ctrl  *admission.Controller // nil = no admission control
	svc   *admission.ServiceTime
	brown *admission.Brownout // nil = brownout disabled

	deadlineRejected *telemetry.Counter
	brownoutServed   *telemetry.Counter
	brownoutRejected *telemetry.Counter
}

func newOverload(opt Options) *overload {
	o := &overload{
		opt:              opt,
		svc:              admission.NewServiceTime(nil),
		deadlineRejected: telemetry.NewCounter(),
		brownoutServed:   telemetry.NewCounter(),
		brownoutRejected: telemetry.NewCounter(),
	}
	if opt.Admission != nil {
		o.ctrl = admission.NewController(*opt.Admission)
		if opt.Brownout != nil {
			o.brown = admission.NewBrownout(*opt.Brownout)
		}
	}
	return o
}

// admitted gates h behind the adaptive admission controller. Each
// request first feeds the brownout detector; while a brownout is
// active, non-priority requests are offered to tryCacheOnly before
// consuming an admission slot, so cache hits stay cheap exactly when
// capacity is scarce. tryCacheOnly may be nil (no degraded mode).
// Callers must only install this middleware when the controller is
// enabled.
func (o *overload) admitted(h http.Handler, tryCacheOnly func(http.ResponseWriter, *http.Request) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o.brown != nil {
			o.brown.Note(o.ctrl.Overloaded())
			if o.brown.Active() && r.Header.Get(PriorityHeader) != PriorityHigh &&
				tryCacheOnly != nil && tryCacheOnly(w, r) {
				return
			}
		}
		rel, err := o.ctrl.Acquire(r.Context())
		if err != nil {
			o.writeAcquireError(w, err)
			return
		}
		start := time.Now()
		defer func() { rel(time.Since(start)) }()
		h.ServeHTTP(w, r)
	})
}

// writeAcquireError maps a Controller.Acquire refusal onto the HTTP
// failure model: shed → 429 with the queue-depth-scaled hint, deadline
// expired while queued → 504, client gone while queued → 499.
func (o *overload) writeAcquireError(w http.ResponseWriter, err error) {
	var rej *admission.RejectedError
	switch {
	case errors.As(err, &rej):
		w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
		http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "deadline expired waiting for admission", http.StatusGatewayTimeout)
	default:
		// The client went away while queued; the status is for logs only.
		w.WriteHeader(statusClientClosedRequest)
	}
}

// deadlined arms the per-request reconstruction budget: the smaller of
// the server's QueryTimeout and the client's propagated remaining
// deadline. A request whose budget cannot cover the EWMA estimate of
// its method's service time is doomed — it would burn a solver slot
// only to time out — so it is rejected in microseconds with 504 +
// Retry-After instead.
func (o *overload) deadlined(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		budget := o.opt.QueryTimeout
		if d, ok := parseDeadlineMs(r.Header.Get(DeadlineHeader)); ok && (budget <= 0 || d < budget) {
			budget = d
		}
		if budget <= 0 {
			h.ServeHTTP(w, r)
			return
		}
		// The estimate gate only applies to single GET queries: a batch
		// POST carries its method mix in the body, so serveMarginals runs
		// the size-scaled gate itself after parsing — gating a batch
		// against one query's estimate here would be wrong in both
		// directions.
		if r.Method == http.MethodGet {
			if method, ok := parseMethod(r.URL.Query().Get("method")); ok {
				if est := o.svc.Estimate(int(method)); est > 0 && budget < est {
					o.deadlineRejected.Add(1)
					w.Header().Set("Retry-After", retryAfterSeconds(o.opt.RetryAfter))
					http.Error(w, fmt.Sprintf("remaining deadline %v below expected %s service time %v",
						budget.Round(time.Millisecond), method, est.Round(time.Millisecond)),
						http.StatusGatewayTimeout)
					return
				}
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// serveCacheOnly answers r from q's memoized cache alone — the brownout
// serving mode. A malformed request returns false so the normal path
// keeps ownership of input errors (400s must look identical in and out
// of brownout). true means handled: served from cache, or refused 503 +
// Retry-After on a miss.
func (o *overload) serveCacheOnly(w http.ResponseWriter, r *http.Request, q Querier) bool {
	if r.Method == http.MethodPost {
		return o.serveCacheOnlyBatch(w, r, q)
	}
	if r.Method != http.MethodGet {
		return false
	}
	attrs, err := parseAttrs(r.URL.Query().Get("attrs"))
	if err != nil || len(attrs) > o.opt.MaxK {
		return false
	}
	method, ok := parseMethod(r.URL.Query().Get("method"))
	if !ok {
		return false
	}
	if cq, ok := q.(CacheOnlyQuerier); ok {
		if t, hit := cq.QueryCached(attrs, method); hit {
			o.brownoutServed.Add(1)
			writeJSON(w, o.opt.Logger, marginalResponse{
				Attrs:  t.Attrs,
				Method: method.String(),
				Total:  t.Total(),
				Cells:  t.Cells,
			})
			return true
		}
	}
	o.brownoutRejected.Add(1)
	o.refuseBrownout(w)
	return true
}

// refuseBrownout writes the 503 brownout refusal with the larger of the
// configured and controller-derived Retry-After hints.
func (o *overload) refuseBrownout(w http.ResponseWriter) {
	hint := o.opt.RetryAfter
	if ra := o.ctrl.RetryAfter(); ra > hint {
		hint = ra
	}
	w.Header().Set("Retry-After", retryAfterSeconds(hint))
	http.Error(w, "brownout: serving cached answers only, retry later", http.StatusServiceUnavailable)
}

// serveCacheOnlyBatch is the brownout serving mode for the batch route:
// the batch is served only when every member is a cache hit — one cold
// member means one solve, which is exactly what brownout exists to
// avoid — and refused 503 + Retry-After otherwise. The body is buffered
// and restored so the normal path can re-read it whenever this returns
// false (malformed input must draw the same 400 in and out of
// brownout).
func (o *overload) serveCacheOnlyBatch(w http.ResponseWriter, r *http.Request, q Querier) bool {
	if !strings.HasSuffix(r.URL.Path, "/marginals") {
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMarginalsBody+1))
	//lint:ignore errdiscard the original body is replaced either way
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil || len(body) > maxMarginalsBody {
		return false
	}
	var req marginalsRequest
	if json.Unmarshal(body, &req) != nil || len(req.Queries) == 0 || len(req.Queries) > o.opt.MaxBatch {
		return false
	}
	reqs, items := parseBatch(req, q, o.opt.MaxK)
	if len(items) > 0 {
		return false
	}
	cq, ok := q.(CacheOnlyQuerier)
	if !ok {
		o.brownoutRejected.Add(1)
		o.refuseBrownout(w)
		return true
	}
	resp := marginalsResponse{Results: make([]marginalResponse, len(reqs))}
	for i, br := range reqs {
		t, hit := cq.QueryCached(br.Attrs, br.Method)
		if !hit {
			o.brownoutRejected.Add(1)
			o.refuseBrownout(w)
			return true
		}
		resp.Results[i] = marginalResponse{
			Attrs:  t.Attrs,
			Method: br.Method.String(),
			Total:  t.Total(),
			Cells:  t.Cells,
		}
	}
	o.brownoutServed.Add(1)
	writeJSON(w, o.opt.Logger, resp)
	return true
}

// stats merges the middleware-owned counters into the controller's
// snapshot. nil when the adaptive controller is disabled and the
// deadline gate has rejected nothing — /v1/releases then omits the
// admission object entirely.
func (o *overload) stats() *admission.Stats {
	var st admission.Stats
	if o.ctrl != nil {
		st = o.ctrl.Stats()
	} else if o.deadlineRejected.Value() == 0 {
		return nil
	}
	st.DeadlineRejected = o.deadlineRejected.Value()
	st.BrownoutServed = o.brownoutServed.Value()
	st.BrownoutRejected = o.brownoutRejected.Value()
	st.BrownoutActive = o.brown != nil && o.brown.Active()
	return &st
}
