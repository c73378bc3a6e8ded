package marginal

import (
	"testing"

	"priview/internal/attrset"
)

// lcg is a tiny deterministic generator (no math/rand per the
// randsource policy; replays identically).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func randomAttrsIn(r *lcg, bound, keepOneIn int) []int {
	var out []int
	for a := 0; a < bound; a++ {
		if int(r.next()%uint64(keepOneIn)) == 0 {
			out = append(out, a)
		}
	}
	return out
}

// bruteProject computes the projection with no index tricks at all:
// for every cell of t, recompute the sub-table index attribute by
// attribute from first principles. This is the oracle the mask fast
// paths (RestrictIndices / ProjectInto / Project) must match exactly —
// same cells, same accumulation order, so even the floating-point sums
// are bit-identical.
func bruteProject(t *Table, sub []int) *Table {
	out := New(sub)
	pos := make([]int, len(sub))
	for j, a := range sub {
		p := -1
		for k, b := range t.Attrs {
			if b == a {
				p = k
				break
			}
		}
		if p < 0 {
			panic("marginal: bruteProject attr not in table")
		}
		pos[j] = p
	}
	for i, v := range t.Cells {
		idx := 0
		for j, p := range pos {
			idx |= ((i >> uint(p)) & 1) << uint(j)
		}
		out.Cells[idx] += v
	}
	return out
}

// TestProjectMatchesBruteForce pits Project's gathering sum and the
// RestrictIndices/ProjectInto scatter against the first-principles cell
// restriction on random tables of up to 10 attributes. Equality is exact (==): both paths must visit cells in ascending
// order, so the float accumulation order — and therefore the rounding —
// is identical.
func TestProjectMatchesBruteForce(t *testing.T) {
	r := lcg(99)
	for trial := 0; trial < 300; trial++ {
		attrs := randomAttrsIn(&r, 40, 5)
		if len(attrs) == 0 || len(attrs) > 10 {
			continue
		}
		tab := New(attrs)
		for i := range tab.Cells {
			tab.Cells[i] = r.float()*2000 - 500
		}
		var sub []int
		for _, a := range attrs {
			if r.next()%2 == 0 {
				sub = append(sub, a)
			}
		}
		want := bruteProject(tab, sub)
		got := tab.Project(sub)
		if !SameAttrs(got.Attrs, want.Attrs) {
			t.Fatalf("Project attrs %v, want %v", got.Attrs, want.Attrs)
		}
		for c := range want.Cells {
			//lint:ignore floatcmp exact equality is the point: identical accumulation order must give identical bits
			if got.Cells[c] != want.Cells[c] {
				t.Fatalf("Project(%v) cell %d = %v, brute force %v (attrs %v)", sub, c, got.Cells[c], want.Cells[c], attrs)
			}
		}
		// The zero-alloc hot-loop pair must agree with Project too.
		ridx := tab.RestrictIndices(sub)
		dst := make([]float64, want.Size())
		tab.ProjectInto(dst, ridx)
		for c := range want.Cells {
			//lint:ignore floatcmp exact equality is the point: identical accumulation order must give identical bits
			if dst[c] != want.Cells[c] {
				t.Fatalf("ProjectInto cell %d = %v, brute force %v", c, dst[c], want.Cells[c])
			}
		}
	}
}

// TestMaskMatchesAttrs: the precomputed mask always equals the packed
// attribute slice, including for tables assembled without New.
func TestMaskMatchesAttrs(t *testing.T) {
	r := lcg(5)
	for trial := 0; trial < 100; trial++ {
		attrs := randomAttrsIn(&r, 64, 8)
		if len(attrs) > 20 {
			continue
		}
		tab := New(attrs)
		if tab.Mask() != attrset.MustFromAttrs(attrs) {
			t.Fatalf("Mask() = %v for attrs %v", tab.Mask(), attrs)
		}
	}
	// Hand-built table (no New, zero mask field): Mask must compute on
	// the fly rather than return the zero value.
	hand := &Table{Attrs: []int{3, 7}, Cells: make([]float64, 4)}
	if hand.Mask() != attrset.Of(3, 7) {
		t.Fatalf("hand-built Mask() = %v", hand.Mask())
	}
}

// TestSameAttrsAgainstElementwise: the mask compare and the element
// walk must agree wherever both are defined, including non-canonical
// input the mask path cannot pack.
func TestSameAttrsAgainstElementwise(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 3}, false},
		{[]int{}, []int{}, true},
		{[]int{1}, []int{1, 2}, false},
		{[]int{64, 65}, []int{64, 65}, true},  // out of mask range: fallback path
		{[]int{64, 65}, []int{64, 66}, false}, // fallback path, different
		{[]int{70}, []int{71}, false},         // fallback path
		{[]int{5, 5}, []int{5, 5}, true},      // duplicates: fallback path
	}
	for _, c := range cases {
		if got := SameAttrs(c.a, c.b); got != c.want {
			t.Errorf("SameAttrs(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
