package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"priview/internal/accuracy"
	"priview/internal/attrset"
	"priview/internal/audit"
	"priview/internal/consistency"
	"priview/internal/core"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/snapshot"
)

// The release every workload publishes or serves: a Kosarak-shaped
// dataset over 32 attributes, released under ε=1 with the design the
// planner picks. The planner's own seed is fixed, so every workload seed
// gets the same design and only the data and noise vary.
const (
	dims       = 32
	epsilon    = 1.0
	planSeed   = 1
	evalQuery4 = 16 // 4-way queries in the answer_l2n set
	evalQuery6 = 16 // 6-way queries in the answer_l2n set
)

// fixture is a workload's dataset, its seeded random streams and the
// chosen design.
type fixture struct {
	rng     *noise.Stream
	records int
	data    *dataset.Dataset
	plan    core.Plan
	cfg     core.Config
	// blocks holds the design's blocks as attribute sets.
	blocks []attrset.Set
}

// newFixture generates the dataset from the workload seed. Planning is
// left to the caller, which times it.
func newFixture(seed int64, records int) *fixture {
	rng := noise.NewStream(seed)
	return &fixture{rng: rng, records: records, data: synth.Kosarak(records, rng.Derive("data").Int63())}
}

// planDesign runs the planner once for the configured record count (a
// public parameter of the benchmark, not read from the data) and
// returns its wall time.
func (f *fixture) planDesign() time.Duration {
	start := time.Now()
	f.plan = core.PlanDesign(dims, f.records, epsilon, planSeed)
	elapsed := time.Since(start)
	// The paper's post-processing: consistency, Ripple, consistency.
	//lint:ignore budgetlit the benchmark's fixed release budget, as in the paper's evaluation; its releases are never published
	f.cfg = core.Config{Epsilon: epsilon, Design: f.plan.Design, Nonneg: consistency.NonnegRipple}
	f.blocks = make([]attrset.Set, len(f.plan.Design.Blocks))
	for i, b := range f.plan.Design.Blocks {
		f.blocks[i] = attrset.MustFromAttrs(b)
	}
	return elapsed
}

// evalSet is the fixed seeded query set answer_l2n is measured on, with
// the true marginal of each query. It is kept apart from the fixture:
// true counts never travel with what the benchmark publishes.
type evalSet struct {
	queries [][]int
	truth   []*marginal.Table
	records float64
}

// evalSet draws the answer_l2n queries and counts their true marginals.
func (f *fixture) evalSet() evalSet {
	s := f.rng.Derive("eval")
	e := evalSet{records: float64(f.data.Len())}
	for i := 0; i < evalQuery4+evalQuery6; i++ {
		k := 4
		if i >= evalQuery4 {
			k = 6
		}
		q := randomSet(s, dims, k)
		e.queries = append(e.queries, q)
		e.truth = append(e.truth, f.data.Marginal(q))
	}
	return e
}

// l2n is the mean normalized L2 error of the release's answers.
func (e evalSet) l2n(ctx context.Context, syn *core.Synopsis) (float64, error) {
	sum := 0.0
	for i, q := range e.queries {
		t, err := syn.QueryMethodContext(ctx, q, core.CME)
		if t == nil {
			return 0, fmt.Errorf("answering %v: %w", q, err)
		}
		sum += accuracy.NormalizedL2Error(t, e.truth[i], e.records)
	}
	return sum / float64(len(e.queries)), nil
}

// release is one published synopsis with the timings of its three
// publication steps.
type release struct {
	syn                        *core.Synopsis
	snapshot                   []byte
	audit                      *audit.Report
	build, check, encode, wall time.Duration
}

// publish builds, audits and encodes one release with the given noise
// seed: the work the publish_s metric times.
func (f *fixture) publish(noiseSeed int64) (*release, error) {
	start := time.Now()
	syn := core.BuildSynopsis(f.data, f.cfg, noise.NewStream(noiseSeed))
	built := time.Now()
	rep := audit.Check(syn, audit.Options{})
	checked := time.Now()
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, syn); err != nil {
		return nil, fmt.Errorf("encoding release: %w", err)
	}
	done := time.Now()
	return &release{
		syn: syn, snapshot: buf.Bytes(), audit: rep,
		build: built.Sub(start), check: checked.Sub(built), encode: done.Sub(checked), wall: done.Sub(start),
	}, nil
}

// trueViews counts the design's views without noise or post-processing:
// the reference the noise gate compares a release's raw views with.
func (f *fixture) trueViews() []*marginal.Table {
	cfg := core.Config{Design: f.plan.Design, NoNoise: true, SkipPostprocess: true}
	return core.BuildSynopsis(f.data, cfg, noise.NewStream(0)).RawViews()
}

// noiseCheck compares the empirical variance of raw view cells around
// their true counts with the analytic Laplace variance 2(w/ε)². The
// squared Laplace draw has relative standard error √(5/M) over M cells
// (its kurtosis is 6), so a deviation beyond five standard errors
// fails.
type noiseCheck struct {
	ratio, tol float64
	cells      int
}

func (c noiseCheck) ok() bool { return math.Abs(c.ratio-1) <= c.tol }

func checkNoise(syn *core.Synopsis, truth []*marginal.Table) noiseCheck {
	raw := syn.RawViews()
	ss, m := 0.0, 0
	for i, v := range raw {
		for j, c := range v.Cells {
			d := c - truth[i].Cells[j]
			ss += d * d
			m++
		}
	}
	b := noise.LaplaceMechScale(float64(len(raw)), syn.Epsilon())
	return noiseCheck{ratio: ss / float64(m) / noise.LaplaceVariance(b), tol: 5 * math.Sqrt(5/float64(m)), cells: m}
}

// randomSet draws k distinct attributes of d, sorted.
func randomSet(s *noise.Stream, d, k int) []int {
	q := append([]int(nil), s.Perm(d)[:k]...)
	sort.Ints(q)
	return q
}

// covered reports whether some design block holds every attribute of
// q, in which case core answers q by projection instead of a solve.
func (f *fixture) covered(q []int) bool {
	m := attrset.MustFromAttrs(q)
	for _, b := range f.blocks {
		if m.Subset(b) {
			return true
		}
	}
	return false
}

// uncoveredSet draws a k-set no design block covers.
func (f *fixture) uncoveredSet(s *noise.Stream, k int) []int {
	for {
		if q := randomSet(s, dims, k); !f.covered(q) {
			return q
		}
	}
}
