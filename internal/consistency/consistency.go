// Package consistency implements PriView's constrained-inference
// post-processing (§4.4 of the paper): making a collection of noisy view
// marginal tables mutually consistent on every shared attribute subset,
// and correcting negative entries with the Ripple method (and the
// Simple/Global alternatives evaluated in Fig. 4).
package consistency

import (
	"priview/internal/attrset"
	"priview/internal/marginal"
)

// MutualOnSet enforces consistency of the given views on the attribute
// set A, which must be a subset of every view's attributes. It computes
// the common estimate as the arithmetic mean of the views' projections
// onto A — variance-minimizing when all views have the same size, the
// paper's §4.4 assumption — and updates every view additively so its
// projection onto A equals that estimate, leaving its marginals over
// attributes outside A untouched (Lemma 1). It returns the agreed
// estimate.
func MutualOnSet(views []*marginal.Table, a []int) *marginal.Table {
	return MutualOnSetWeighted(views, a, nil)
}

// MutualOnSetWeighted is MutualOnSet with explicit non-negative
// averaging weights (nil means uniform). When view sizes differ, the
// projection of a larger view onto A sums more noisy cells and so
// carries more noise; weights ∝ 2^{-|V_i|} (see VarianceWeights) give
// the minimum-variance combination.
func MutualOnSetWeighted(views []*marginal.Table, a []int, weights []float64) *marginal.Table {
	if len(views) == 0 {
		panic("consistency: no views")
	}
	if weights != nil && len(weights) != len(views) {
		panic("consistency: weights must align with views")
	}
	est := marginal.New(a)
	projections := make([]*marginal.Table, len(views))
	wSum := 0.0
	for i, v := range views {
		projections[i] = v.Project(a)
		w := 1.0
		if weights != nil {
			w = weights[i]
			if w < 0 {
				panic("consistency: negative weight")
			}
		}
		wSum += w
		for c := range est.Cells {
			est.Cells[c] += w * projections[i].Cells[c]
		}
	}
	if wSum <= 0 {
		panic("consistency: weights sum to zero")
	}
	est.Scale(1 / wSum)
	for i, v := range views {
		applyEstimate(v, est, projections[i])
	}
	return est
}

// VarianceWeights returns averaging weights for views with homogeneous
// per-cell noise: a view over |V_i| attributes projects onto A by
// summing 2^{|V_i|-|A|} cells, giving projection variance ∝ 2^{|V_i|},
// so the inverse-variance weight is 2^{-|V_i|} (the common 2^{-|A|}
// factor cancels in normalization).
func VarianceWeights(views []*marginal.Table) []float64 {
	w := make([]float64, len(views))
	for i, v := range views {
		w[i] = 1 / float64(int(1)<<uint(v.Dim()))
	}
	return w
}

// applyEstimate updates view so its projection on est.Attrs equals est,
// distributing each cell's correction evenly over the view cells that
// project to it: T(c) += (est(a) − proj(a)) / 2^{|V|−|A|}. The cell
// mapping is precomputed once (RestrictIndices), so the sweep over the
// view is two array loads per cell.
func applyEstimate(view, est, proj *marginal.Table) {
	ridx := view.RestrictIndices(est.Attrs)
	share := 1 / float64(int(1)<<uint(view.Dim()-est.Dim()))
	// Precompute per-restricted-index correction.
	corr := make([]float64, len(est.Cells))
	for i := range est.Cells {
		corr[i] = (est.Cells[i] - proj.Cells[i]) * share
	}
	for c := range view.Cells {
		view.Cells[c] += corr[ridx[c]]
	}
}

// Overall makes all views mutually consistent (Definition 2): for every
// pair V_i, V_j, the projections onto V_i ∩ V_j agree. It computes the
// closure of the view attribute sets under intersection, orders it by a
// linear extension of the subset partial order (size ascending, so the
// empty set — total-count consistency — comes first), and runs
// MutualOnSet for each closure set over the views containing it. By
// Lemma 1, later steps never invalidate earlier ones.
//
// Attribute sets are manipulated as attrset masks throughout; the
// d < 64 invariant they rely on is enforced when the tables are built
// (marginal.New) and, with typed errors, at the core.Config and
// dataset input boundaries — not here.
func Overall(views []*marginal.Table) {
	NewPlan(views).Run(views, false)
}

// OverallWeighted is Overall with inverse-variance averaging at each
// mutual-consistency step (see VarianceWeights) — identical to Overall
// when all views have the same size, strictly lower-variance when a
// design mixes block sizes.
func OverallWeighted(views []*marginal.Table) {
	NewPlan(views).Run(views, true)
}

// Plan is the schedule of mutual-consistency steps Overall runs over a
// collection of views: each set of the intersection closure, in
// processing order, with the views that contain it. It depends only on
// the views' attribute sets, so a caller that reconciles the same views
// several times (consistency, Ripple, consistency again) builds the
// closure once.
type Plan struct {
	masks []attrset.Set
	steps []planStep
	// members holds each step's view indices back to back, in view
	// order.
	members []int
}

type planStep struct {
	attrs  []int
	lo, hi int // the views containing attrs are members[lo:hi]
}

// NewPlan returns the Overall schedule for views' attribute sets.
func NewPlan(views []*marginal.Table) *Plan {
	p := &Plan{masks: make([]attrset.Set, len(views))}
	for i, v := range views {
		p.masks[i] = v.Mask()
	}
	if len(views) < 2 {
		return p
	}
	for _, mask := range attrset.IntersectionClosure(p.masks) {
		lo := len(p.members)
		for i, vm := range p.masks {
			if mask.Subset(vm) {
				p.members = append(p.members, i)
			}
		}
		if len(p.members)-lo >= 2 {
			p.steps = append(p.steps, planStep{attrs: mask.Attrs(), lo: lo, hi: len(p.members)})
		} else {
			p.members = p.members[:lo]
		}
	}
	return p
}

// Run makes views mutually consistent by the plan's schedule, with
// inverse-variance weights when weighted (OverallWeighted) and uniform
// ones otherwise (Overall). views must have the attribute sets, in
// order, that the plan was built from.
func (p *Plan) Run(views []*marginal.Table, weighted bool) {
	if len(views) != len(p.masks) {
		panic("consistency: views do not match the plan")
	}
	for i, v := range views {
		if v.Mask() != p.masks[i] {
			panic("consistency: views do not match the plan")
		}
	}
	group := make([]*marginal.Table, 0, len(views))
	for _, st := range p.steps {
		group = group[:0]
		for _, i := range p.members[st.lo:st.hi] {
			group = append(group, views[i])
		}
		if weighted {
			MutualOnSetWeighted(group, st.attrs, VarianceWeights(group))
		} else {
			MutualOnSet(group, st.attrs)
		}
	}
}

// IsPairwiseConsistent reports whether every pair of views agrees on the
// projection onto their common attributes to within tol.
func IsPairwiseConsistent(views []*marginal.Table, tol float64) bool {
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			common := views[i].Mask().Intersect(views[j].Mask()).Attrs()
			pi := views[i].Project(common)
			pj := views[j].Project(common)
			if !marginal.Equal(pi, pj, tol) {
				return false
			}
		}
	}
	return true
}
