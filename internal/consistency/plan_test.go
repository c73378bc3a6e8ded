package consistency

import (
	"math/rand"
	"testing"

	"priview/internal/attrset"
	"priview/internal/marginal"
)

// closurePerCall is Overall as it stood before Plan: the intersection
// closure and each set's view group recomputed on every call. It is the
// oracle a shared plan must match bit for bit.
func closurePerCall(views []*marginal.Table, weighted bool) {
	if len(views) < 2 {
		return
	}
	viewMasks := make([]attrset.Set, len(views))
	for i, v := range views {
		viewMasks[i] = v.Mask()
	}
	group := make([]*marginal.Table, 0, len(views))
	for _, mask := range attrset.IntersectionClosure(viewMasks) {
		group = group[:0]
		for i, vm := range viewMasks {
			if mask.Subset(vm) {
				group = append(group, views[i])
			}
		}
		if len(group) >= 2 {
			if weighted {
				MutualOnSetWeighted(group, mask.Attrs(), VarianceWeights(group))
			} else {
				MutualOnSet(group, mask.Attrs())
			}
		}
	}
}

// One plan run through the Consistency + Ripple + Consistency schedule
// gives the same bits as recomputing the closure for each pass, for
// uniform and weighted averaging over views of mixed sizes.
func TestPlanMatchesClosurePerCall(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, weighted := range []bool{false, true} {
			r := rand.New(rand.NewSource(seed))
			var want []*marginal.Table
			for i := 0; i < 2+r.Intn(12); i++ {
				want = append(want, randomView(r, r.Perm(12)[:1+r.Intn(6)], 100))
				want[i].Cells[0] -= 30 // give Ripple negatives to repair
			}
			got := make([]*marginal.Table, len(want))
			for i, v := range want {
				got[i] = v.Clone()
			}
			plan := NewPlan(got)
			for round := 0; round < 2; round++ {
				closurePerCall(want, weighted)
				plan.Run(got, weighted)
				for i := range want {
					Ripple(want[i], DefaultRippleTheta)
					Ripple(got[i], DefaultRippleTheta)
				}
			}
			for i := range want {
				for c := range want[i].Cells {
					//lint:ignore floatcmp the plan must run the same float operations in the same order
					if got[i].Cells[c] != want[i].Cells[c] {
						t.Fatalf("seed %d weighted %v: view %d cell %d = %v, want %v", seed, weighted, i, c, got[i].Cells[c], want[i].Cells[c])
					}
				}
			}
		}
	}
}

func TestPlanRejectsOtherViews(t *testing.T) {
	a, b := marginal.New([]int{0, 1}), marginal.New([]int{1, 2})
	plan := NewPlan([]*marginal.Table{a, b})
	for name, views := range map[string][]*marginal.Table{
		"fewer":     {a},
		"reordered": {b, a},
		"other set": {a, marginal.New([]int{1, 3})},
	} {
		func() {
			defer func() { _ = recover() }()
			plan.Run(views, false)
			t.Errorf("%s: expected panic", name)
		}()
	}
}
