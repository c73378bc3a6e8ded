package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/core"
	"priview/internal/noise"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the
	// median.
	setupRepeats = 3
	// The in-process answer stream run against every release of the
	// publish workload: uncovered 6-way singles (the paper's Q6) and
	// batches of random 4-way queries, three singles to one batch.
	qSingles   = 300
	qBatches   = 100
	batchSize  = 16
	batchOrder = 4
	singleK    = 6
)

// qOp is one operation of the in-process answer stream: a single query
// or a batch.
type qOp struct {
	single []int
	batch  [][]int
}

// answerStream draws the publish workload's answer stream from the
// seed, interleaving three singles per batch.
func answerStream(f *fixture) []qOp {
	s := f.rng.Derive("answer-stream")
	ops := make([]qOp, 0, qSingles+qBatches)
	for len(ops) < qSingles+qBatches {
		if len(ops)%4 == 3 {
			ops = append(ops, qOp{batch: randomBatch(s)})
		} else {
			ops = append(ops, qOp{single: f.uncoveredSet(s, singleK)})
		}
	}
	return ops
}

// randomBatch draws batchSize random batchOrder-way attribute sets.
func randomBatch(s *noise.Stream) [][]int {
	b := make([][]int, batchSize)
	for i := range b {
		b[i] = randomSet(s, dims, batchOrder)
	}
	return b
}

func batchRequests(b [][]int) []core.BatchRequest {
	reqs := make([]core.BatchRequest, len(b))
	for i, q := range b {
		reqs[i] = core.BatchRequest{Attrs: q, Method: core.CME}
	}
	return reqs
}

// streamResult is the outcome of one pass of the answer stream.
type streamResult struct {
	single, batch []time.Duration
	elapsed       time.Duration
	failed        int
}

// runAnswerStream answers ops closed loop from GOMAXPROCS goroutines
// and times every operation.
func runAnswerStream(ctx context.Context, syn *core.Synopsis, ops []qOp) streamResult {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var mu sync.Mutex
	var res streamResult
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var single, batch []time.Duration
			failed := 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				op := ops[i]
				begin := time.Now()
				if op.batch == nil {
					if t, _ := syn.QueryMethodContext(ctx, op.single, core.CME); t == nil {
						failed++
					}
					single = append(single, time.Since(begin))
				} else {
					if _, err := syn.QueryBatch(ctx, batchRequests(op.batch), core.BatchOptions{}); err != nil {
						failed++
					}
					batch = append(batch, time.Since(begin))
				}
			}
			mu.Lock()
			res.single = append(res.single, single...)
			res.batch = append(res.batch, batch...)
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runPublish is the publish workload: releases built back to back, in
// pairs from one noise seed so each pair checks that a rebuild gives
// the same bytes. Every release is audited, checked for its noise
// variance, measured for answer error and answers the in-process
// stream.
func runPublish(ctx context.Context, cfg config, r *report) error {
	f := newFixture(cfg.seed, cfg.records)
	plans := make([]time.Duration, setupRepeats)
	for i := range plans {
		plans[i] = f.planDesign()
	}
	r.meta["design"] = f.plan.Design.Name()
	r.set("setup_s", seconds(median(plans)), len(plans))
	eval := f.evalSet()
	truth := f.trueViews()
	ops := answerStream(f)

	seeds := f.rng.Derive("release")
	var walls []time.Duration
	var stream streamResult
	var last *release
	l2n, releases := 0.0, 0
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start).Seconds() < cfg.seconds; pair++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := seeds.Int63()
		var rels [2]*release
		for i := range rels {
			rel, err := f.publish(seed)
			if err != nil {
				return err
			}
			rels[i] = rel
			walls = append(walls, rel.wall)
		}
		same := bytes.Equal(rels[0].snapshot, rels[1].snapshot)
		r.gate("rebuild_identical", same, "pair %d: two builds from noise seed %d give %d and %d snapshot bytes, identical=%v",
			pair, seed, len(rels[0].snapshot), len(rels[1].snapshot), same)
		for _, rel := range rels {
			releases++
			r.attempted++
			nc := checkNoise(rel.syn, truth)
			ok := same && rel.audit.OK() && nc.ok()
			r.gate("audit", rel.audit.OK(), "release %d: %d findings, err=%v", releases, len(rel.audit.Findings), rel.audit.Err())
			r.gate("noise_variance", nc.ok(), "release %d: empirical/analytic Laplace variance %.4f over %d cells, tolerance ±%.4f",
				releases, nc.ratio, nc.cells, nc.tol)
			e, err := eval.l2n(ctx, rel.syn)
			if err != nil {
				return err
			}
			l2n += e
			s := runAnswerStream(ctx, rel.syn, ops)
			r.attempted += len(ops)
			r.failed += s.failed
			stream.single = append(stream.single, s.single...)
			stream.batch = append(stream.batch, s.batch...)
			stream.elapsed += s.elapsed
			if !ok {
				r.failed++
			}
			last = rel
		}
	}
	r.note("publish: %d releases, %d answer-stream singles and %d batches", releases, len(stream.single), len(stream.batch))
	r.set("publish_s", seconds(median(walls)), len(walls))
	r.set("answer_l2n", l2n/float64(releases), releases)
	setLatencies(r, stream.single, stream.batch)
	r.set("max_rps", float64(len(stream.single)+len(stream.batch))/stream.elapsed.Seconds(), len(stream.single)+len(stream.batch))
	rss, err := peakRSSMB("self")
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	r.set("rss_mb", rss, 1)
	if !cfg.trace {
		return nil
	}
	r.set("core.plan_ms", ms(median(plans)), len(plans))
	if err := publishLayers(f, r, seeds.Int63()); err != nil {
		return err
	}
	if err := answerLayers(ctx, r, last.syn, singlesOf(ops), batchesOf(ops), singlesOf(ops)); err != nil {
		return err
	}
	r.offPath("registry.ready_ms", "qcache.hit_ratio", "qcache.evictions", "qcache.coalesced",
		"stage.cache_hit_us", "stage.cache_fill_us", "stage.core_prepare_us", "stage.reconstruct_cme_us",
		"server.request_us.single", "server.request_us.batch", "server.resp_bytes", "server.unattributed_us",
		"loadgen.transport_us", "admission.queued", "admission.shed", "admission.sojourn_p99_ms",
		"loadgen.lag_p99_ms", "trace.overhead_pct")
	return nil
}

// setLatencies records the p50 of the single and batch latencies as
// end-to-end metrics, and in a traced run their p99 as the loadgen tail
// metrics. The p99 is not an end-to-end metric: on a shared machine the
// stalls of the machine itself set it, so it moves more from run to run
// than any bound a change could be held to.
func setLatencies(r *report, single, batch []time.Duration) {
	r.set("p50_ms", ms(percentile(single, 0.50)), len(single))
	r.set("batch_p50_ms", ms(percentile(batch, 0.50)), len(batch))
	r.row(map[string]any{"row": "tail", "p99_ms": ms(percentile(single, 0.99)), "singles": len(single),
		"batch_p99_ms": ms(percentile(batch, 0.99)), "batches": len(batch)})
	if r.cfg.trace {
		r.set("loadgen.p99_ms", ms(percentile(single, 0.99)), len(single))
		r.set("loadgen.batch_p99_ms", ms(percentile(batch, 0.99)), len(batch))
	}
}

// singlesOf lists the single queries of an answer stream.
func singlesOf(ops []qOp) [][]int {
	var qs [][]int
	for _, op := range ops {
		if op.batch == nil {
			qs = append(qs, op.single)
		}
	}
	return qs
}

// batchesOf lists the batches of an answer stream.
func batchesOf(ops []qOp) [][][]int {
	var bs [][][]int
	for _, op := range ops {
		if op.batch != nil {
			bs = append(bs, op.batch)
		}
	}
	return bs
}
