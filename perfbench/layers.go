package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"priview/internal/consistency"
	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
	"priview/internal/snapshot"
)

// Per-layer metrics of a traced run come from timed calls into each
// module's public functions, made by the benchmark around the layer
// boundary: nothing inside the program is instrumented for them.

// publishLayers times the publication layers one by one on the
// fixture's data and design, then the whole build, and reports how the
// two compare.
func publishLayers(f *fixture, r *report, noiseSeed int64) error {
	blocks := f.plan.Design.Blocks
	start := time.Now()
	views := make([]*marginal.Table, len(blocks))
	for i, b := range blocks {
		views[i] = f.data.Marginal(b)
	}
	count := time.Since(start)

	scale := noise.LaplaceMechScale(float64(len(blocks)), f.cfg.Epsilon)
	src := noise.NewStream(noiseSeed)
	start = time.Now()
	for _, v := range views {
		v.AddLaplace(src, scale)
	}
	laplace := time.Since(start)

	// The default post-processing schedule: consistency, Ripple on
	// every view, consistency again.
	start = time.Now()
	consistency.Overall(views)
	overall := time.Since(start)
	start = time.Now()
	for _, v := range views {
		consistency.Apply(consistency.NonnegRipple, v, consistency.DefaultRippleTheta)
	}
	ripple := time.Since(start)
	start = time.Now()
	consistency.Overall(views)
	overall += time.Since(start)

	rel, err := f.publish(noiseSeed)
	if err != nil {
		return err
	}
	decodes := make([]time.Duration, setupRepeats)
	for i := range decodes {
		start = time.Now()
		if _, err := snapshot.Decode(rel.snapshot); err != nil {
			return fmt.Errorf("decoding release: %w", err)
		}
		decodes[i] = time.Since(start)
	}

	r.set("dataset.count_ms", ms(count), len(blocks))
	r.set("dataset.record_views", float64(f.data.Len())*float64(len(blocks)), 1)
	r.set("noise.laplace_ms", ms(laplace), len(blocks))
	r.set("consistency.overall_ms", ms(overall), 2)
	r.set("consistency.ripple_ms", ms(ripple), len(blocks))
	r.set("core.build_ms", ms(rel.build), 1)
	r.set("audit.check_ms", ms(rel.check), 1)
	r.set("snapshot.encode_ms", ms(rel.encode), 1)
	r.set("snapshot.bytes", float64(len(rel.snapshot)), 1)
	r.set("snapshot.decode_ms", ms(median(decodes)), len(decodes))

	sum := count + laplace + overall + ripple
	r.note("publish: core.build_ms %.1f against the layer calls' sum %.1f (count %.1f + laplace %.1f + consistency %.1f + ripple %.1f); "+
		"orchestration and parallel counting account for %.1f ms",
		ms(rel.build), ms(sum), ms(count), ms(laplace), ms(overall), ms(ripple), ms(sum-rel.build))
	r.note("publish: one release is build %.1f + audit %.1f + encode %.1f = %.1f ms",
		ms(rel.build), ms(rel.check), ms(rel.encode), ms(rel.wall))
	return nil
}

// Traced runs cap how many queries each solver layer is timed on.
const (
	layerSingles = 300
	layerBatches = 100
	hitPasses    = 5
)

// answerLayers times the query layers on syn: the constraint prepare
// and the maximum-entropy solve on every uncovered single, the whole
// query and batch paths, and qcache hits replaying hitStream against a
// cache warmed with its keys.
func answerLayers(ctx context.Context, r *report, syn *core.Synopsis, singles [][]int, batches [][][]int, hitStream [][]int) error {
	if len(singles) > layerSingles {
		singles = singles[:layerSingles]
	}
	if len(batches) > layerBatches {
		batches = batches[:layerBatches]
	}
	views, total := syn.Views(), syn.Total()
	var prep, cme, query, batch []time.Duration
	for _, q := range singles {
		if reconstruct.Covered(views, q) != nil {
			continue
		}
		start := time.Now()
		cons := reconstruct.MaximalConstraints(reconstruct.ConstraintsFromViews(views, q))
		p := reconstruct.Prepare(q, total, cons)
		prepared := time.Now()
		if _, err := p.MaxEnt(ctx, reconstruct.Options{}); err != nil && !errors.Is(err, reconstruct.ErrNumerical) {
			return fmt.Errorf("solving %v: %w", q, err)
		}
		prep = append(prep, prepared.Sub(start))
		cme = append(cme, time.Since(prepared))
	}
	for _, q := range singles {
		start := time.Now()
		if t, err := syn.QueryMethodContext(ctx, q, core.CME); t == nil {
			return fmt.Errorf("querying %v: %w", q, err)
		}
		query = append(query, time.Since(start))
	}
	for _, b := range batches {
		start := time.Now()
		if _, err := syn.QueryBatch(ctx, batchRequests(b), core.BatchOptions{}); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		batch = append(batch, time.Since(start))
	}
	r.set("reconstruct.prepare_us.p50", us(percentile(prep, 0.5)), len(prep))
	r.set("reconstruct.prepare_us.p99", us(percentile(prep, 0.99)), len(prep))
	r.set("reconstruct.cme_us.p50", us(percentile(cme, 0.5)), len(cme))
	r.set("reconstruct.cme_us.p99", us(percentile(cme, 0.99)), len(cme))
	r.set("core.query_us", us(median(query)), len(query))
	r.set("core.batch_us", us(median(batch)), len(batch))

	hit, err := cacheHitTime(ctx, syn, hitStream)
	if err != nil {
		return err
	}
	r.set("qcache.hit_ns", float64(hit.Nanoseconds()), hitPasses*len(hitStream))
	r.note("solver: prepare p50 %.1f us + cme p50 %.1f us against core.query_us %.1f us over %d uncovered of %d singles",
		us(percentile(prep, 0.5)), us(percentile(cme, 0.5)), us(median(query)), len(prep), len(singles))
	return nil
}

// cacheHitTime warms a fresh query cache with every key of stream, then
// replays the stream hitPasses times and returns the median per-pass
// mean time of one Cache.Do hit.
func cacheHitTime(ctx context.Context, syn *core.Synopsis, stream [][]int) (time.Duration, error) {
	c := qcache.New(4096, 64<<20)
	keys := make([]qcache.Key, 0, len(stream))
	solve := func(q []int) func(context.Context) (*marginal.Table, error) {
		return func(ctx context.Context) (*marginal.Table, error) { return syn.QueryMethodContext(ctx, q, core.CME) }
	}
	for _, q := range stream {
		k, ok := qcache.KeyFor(q, int(core.CME))
		if !ok {
			return 0, fmt.Errorf("query %v has no cache key", q)
		}
		// A degraded answer is served but not cached, so its key would
		// miss on replay.
		if _, err := c.Do(ctx, k, solve(q)); err != nil {
			if errors.Is(err, reconstruct.ErrNumerical) {
				continue
			}
			return 0, err
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0, errors.New("no query of the hit stream could be cached")
	}
	missed := func(context.Context) (*marginal.Table, error) {
		return nil, errors.New("warmed key missed the cache")
	}
	passes := make([]time.Duration, hitPasses)
	for p := range passes {
		start := time.Now()
		for _, k := range keys {
			if _, err := c.Do(ctx, k, missed); err != nil {
				return 0, err
			}
		}
		passes[p] = time.Since(start) / time.Duration(len(keys))
	}
	return median(passes), nil
}
