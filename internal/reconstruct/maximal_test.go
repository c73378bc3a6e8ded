package reconstruct

import (
	"math"
	"math/rand"
	"testing"

	"priview/internal/marginal"
)

// TestMaximalFromViewsMatchesPipeline pins the mask-first derivation to
// the pipeline it replaces — MaximalConstraints(DropNonFinite(
// ConstraintsFromViews(...))) — bit for bit, in order, with the same
// dropped count, whatever the view facts vouch for. The random view
// families overlap heavily, so duplicated and nested intersections are
// common, and some views carry NaN, ±Inf or cells whose sums overflow.
func TestMaximalFromViewsMatchesPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const d = 10
	for trial := 0; trial < 400; trial++ {
		views := make([]*marginal.Table, 3+r.Intn(12))
		for i := range views {
			v := marginal.New(r.Perm(d)[:1+r.Intn(6)])
			for c := range v.Cells {
				v.Cells[c] = r.Float64() * 100
			}
			switch r.Intn(10) {
			case 0:
				v.Cells[r.Intn(v.Size())] = math.NaN()
			case 1:
				v.Cells[r.Intn(v.Size())] = math.Inf(1 - 2*r.Intn(2))
			case 2:
				v.Fill(1e308 * float64(1-2*r.Intn(2)))
			case 3:
				v.Cells[0] = 1e308
			}
			views[i] = v
		}
		attrs := r.Perm(d)[:1+r.Intn(6)]
		wantCons, wantDropped := DropNonFinite(ConstraintsFromViews(views, attrs))
		want := MaximalConstraints(wantCons)
		facts := map[string][]bool{
			"computed":  ProjectionSafe(views),
			"none safe": make([]bool, len(views)),
		}
		for name, safe := range facts {
			got, dropped := MaximalFromViews(views, safe, attrs)
			if dropped != wantDropped {
				t.Fatalf("trial %d (%s): dropped %d, pipeline %d", trial, name, dropped, wantDropped)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d constraints, pipeline %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if !marginal.SameAttrs(got[i].Attrs, want[i].Attrs) {
					t.Fatalf("trial %d (%s): constraint %d over %v, pipeline %v", trial, name, i, got[i].Attrs, want[i].Attrs)
				}
				for c := range want[i].Cells {
					if math.Float64bits(got[i].Cells[c]) != math.Float64bits(want[i].Cells[c]) {
						t.Fatalf("trial %d (%s): constraint %v cell %d = %v, pipeline %v",
							trial, name, want[i].Attrs, c, got[i].Cells[c], want[i].Cells[c])
					}
				}
			}
		}
	}
}

// TestProjectionSafe: a view is vouched for exactly when its cells are
// finite and their absolute sum cannot overflow a projection.
func TestProjectionSafe(t *testing.T) {
	mk := func(cells ...float64) *marginal.Table {
		v := marginal.New([]int{0, 1})
		copy(v.Cells, cells)
		return v
	}
	views := []*marginal.Table{
		mk(1, 2, 3, 4),
		mk(1, math.NaN(), 3, 4),
		mk(1, 2, math.Inf(-1), 4),
		mk(1e308, 1e308, 0, 0),
		mk(-1e308, 0, 0, 0),
		mk(1e307, -1e307, 1e307, 0),
	}
	want := []bool{true, false, false, false, false, true}
	got := ProjectionSafe(views)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("view %v: safe %v, want %v", views[i].Cells, got[i], want[i])
		}
	}
}
