package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"priview/internal/telemetry"
)

// metricsSnapshot is one scrape of the server's /metrics.
type metricsSnapshot map[string]*telemetry.ParsedFamily

// The two marginal routes, as the server labels them.
const (
	singleRoute = "/v1/{release}/marginal"
	batchRoute  = "/v1/{release}/marginals"
)

func (s *server) scrape(ctx context.Context) (metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return fams, nil
}

// value returns the sample's value, or 0 when the series does not exist
// yet (a labelled series appears on first use).
func (m metricsSnapshot) value(family, sample string, labels map[string]string) float64 {
	f := m[family]
	if f == nil {
		return 0
	}
	if s := f.Sample(sample, labels); s != nil {
		return s.Value
	}
	return 0
}

func (m metricsSnapshot) counter(family string, labels map[string]string) float64 {
	return m.value(family, family, labels)
}

// hist returns a histogram series' sum and count.
func (m metricsSnapshot) hist(family string, labels map[string]string) (sum, count float64) {
	return m.value(family, family+"_sum", labels), m.value(family, family+"_count", labels)
}

// marginalRequests counts 2xx answers on both marginal routes.
func (m metricsSnapshot) marginalRequests() float64 {
	return m.counter("priview_http_requests_total", map[string]string{"route": singleRoute, "status": "2xx"}) +
		m.counter("priview_http_requests_total", map[string]string{"route": batchRoute, "status": "2xx"})
}

// delta is the change of a counter between two scrapes.
func delta(before, after metricsSnapshot, family string, labels map[string]string) float64 {
	return after.counter(family, labels) - before.counter(family, labels)
}

// meanDelta is the mean observation of a histogram series between two
// scrapes, with the number of observations.
func meanDelta(before, after metricsSnapshot, family string, labels map[string]string) (mean, count float64) {
	s0, c0 := before.hist(family, labels)
	s1, c1 := after.hist(family, labels)
	if c1 <= c0 {
		return 0, 0
	}
	return (s1 - s0) / (c1 - c0), c1 - c0
}

// meanOver is the mean observation of a histogram series over several
// traced rungs, each scraped before and after, with the number of
// observations.
func meanOver(rungs []*rung, family string, labels map[string]string) (mean, count float64) {
	sum := 0.0
	for _, rg := range rungs {
		m, n := meanDelta(rg.before, rg.after, family, labels)
		sum += m * n
		count += n
	}
	if count <= 0 {
		return 0, 0
	}
	return sum / count, count
}

// quantileDelta estimates the q-quantile of a histogram's observations
// between two scrapes as the upper bound of the bucket it falls in.
func quantileDelta(before, after metricsSnapshot, family string, q float64) float64 {
	f := after[family]
	if f == nil {
		return 0
	}
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, s := range f.Samples {
		if s.Name != family+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, s.Value - before.value(family, family+"_bucket", s.Labels)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n <= 0 {
		return 0
	}
	total := bs[len(bs)-1].n
	for _, b := range bs {
		if b.n >= q*total {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}

// The trace stages the server records, by the metric they feed.
var stageMetrics = []struct{ stage, metric string }{
	{"cache.hit", "stage.cache_hit_us"},
	{"cache.fill", "stage.cache_fill_us"},
	{"core.prepare", "stage.core_prepare_us"},
	{"reconstruct.cme", "stage.reconstruct_cme_us"},
}

// serveLayers derives the serving-side layer metrics from the traced
// saturation rungs, which the end-to-end latencies come from, the
// nominal rungs and the whole traced ladder, and writes the
// reconciliation report: client latency, then server time, then the
// time the server's trace stages account for, then the rest.
func serveLayers(r *report, saturation, nominal, rungs []*rung) {
	st := merged(saturation)
	single, nSingle := meanOver(saturation, "priview_http_request_seconds", map[string]string{"route": singleRoute, "status": "2xx"})
	batch, nBatch := meanOver(saturation, "priview_http_request_seconds", map[string]string{"route": batchRoute, "status": "2xx"})
	r.set("server.request_us.single", single*1e6, int(nSingle))
	r.set("server.request_us.batch", batch*1e6, int(nBatch))
	for _, sm := range stageMetrics {
		m, n := meanOver(saturation, "priview_stage_seconds", map[string]string{"stage": sm.stage})
		r.set(sm.metric, m*1e6, int(n))
	}
	// Every single GET passes through the query cache, which records
	// exactly one top-level stage for it: a hit, a join of another
	// request's solve, or a fill that contains the solve's own stages.
	// Batches record no cache stage, so the reconciliation covers singles.
	cacheTotal := 0.0
	for _, stage := range []string{"cache.hit", "cache.join", "cache.fill"} {
		m, n := meanOver(saturation, "priview_stage_seconds", map[string]string{"stage": stage})
		cacheTotal += m * n
	}
	perSingle := 0.0
	if nSingle > 0 {
		perSingle = cacheTotal / nSingle
	}
	r.set("server.unattributed_us", (single-perSingle)*1e6, int(nSingle))
	bytes := 0.0
	for _, n := range st.singleBytes {
		bytes += float64(n)
	}
	if len(st.singleBytes) > 0 {
		bytes /= float64(len(st.singleBytes))
	}
	r.set("server.resp_bytes", bytes, len(st.singleBytes))
	service := us(mean(st.service))
	r.set("loadgen.transport_us", service-single*1e6, len(st.service))
	lag := merged(nominal).lag
	r.set("loadgen.lag_p99_ms", ms(percentile(lag, 0.99)), len(lag))
	var on, off []time.Duration
	for _, rg := range nominal {
		for i, q := range rg.res.reqs {
			if o := &rg.res.out[i]; !q.batch && o.ok() {
				if q.traced {
					on = append(on, o.ended-q.due)
				} else {
					off = append(off, o.ended-q.due)
				}
			}
		}
	}
	ref, traced := percentile(off, 0.5), percentile(on, 0.5)
	overhead := 0.0
	if ref > 0 {
		overhead = 100 * (ms(traced) - ms(ref)) / ms(ref)
	}
	r.set("trace.overhead_pct", overhead, len(on))

	first, last := rungs[0].before, rungs[len(rungs)-1].after
	rel := map[string]string{"release": releaseName}
	hits := delta(first, last, "priview_qcache_hits_total", rel)
	lookups := hits + delta(first, last, "priview_qcache_misses_total", rel) + delta(first, last, "priview_qcache_coalesced_total", rel)
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	r.set("qcache.hit_ratio", ratio, int(lookups))
	r.set("qcache.evictions", delta(first, last, "priview_qcache_evictions_total", rel), 1)
	r.set("qcache.coalesced", delta(first, last, "priview_qcache_coalesced_total", rel), 1)
	r.set("admission.queued", delta(first, last, "priview_admission_queued_total", nil), 1)
	r.set("admission.shed", delta(first, last, "priview_admission_shed_total", nil), 1)
	r.set("admission.sojourn_p99_ms", 1e3*quantileDelta(first, last, "priview_admission_sojourn_seconds", 0.99), 1)

	r.note("serve: %d nominal rungs, single p50 %.3f ms traced, %.3f ms untraced",
		len(nominal), ms(traced), ms(ref))
	r.note("serve: %d saturation rungs, %d singles and %d batches; client single p50 %.3f ms, mean %.1f us",
		len(saturation), len(st.single), len(st.batch), ms(percentile(st.single, 0.5)), service)
	r.note("serve:   -> server.request_us.single %.1f us; transport and client %.1f us", single*1e6, service-single*1e6)
	r.note("serve:   -> cache stage (hit, join or fill with its solve) %.1f us per single; unattributed (mux, admission, encode) %.1f us",
		perSingle*1e6, (single-perSingle)*1e6)
	r.note("serve: ladder qcache hit ratio %.4f over %.0f lookups", ratio, lookups)
}

// writeSpans writes every traced request of the ladder as one JSON line
// to a spans file in the work directory.
func writeSpans(cfg config, rungs []*rung) (string, error) {
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rg := range rungs {
		for i, q := range rg.res.reqs {
			o := &rg.res.out[i]
			if rg.res.closed && !o.sent {
				continue // drawn but not needed before the rung ended
			}
			kind := "single"
			if q.batch {
				kind = "batch"
			}
			span := map[string]any{
				"rung": rg.label, "kind": kind, "due_us": us(q.due), "dispatched_us": us(o.dispatched),
				"sent": o.sent, "started_us": us(o.started), "first_byte_us": us(o.firstByte),
				"ended_us": us(o.ended), "status": o.status, "bytes": o.bytes,
			}
			if err := enc.Encode(span); err != nil {
				//lint:ignore errdiscard the encode error is the one to report
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore errdiscard the flush error is the one to report
		f.Close()
		return "", err
	}
	return path, f.Close()
}
