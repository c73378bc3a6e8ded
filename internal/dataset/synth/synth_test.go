package synth

import (
	"math"
	"math/bits"
	"testing"

	"priview/internal/noise"
)

func TestKosarakShape(t *testing.T) {
	d := Kosarak(2000, 1)
	if d.Dim() != 32 {
		t.Fatalf("dim = %d, want 32", d.Dim())
	}
	if d.Len() != 2000 {
		t.Fatalf("len = %d", d.Len())
	}
	dens := d.OneWayDensities()
	// Popularity must be skewed: first page much denser than last.
	if dens[0] < 2*dens[31] {
		t.Errorf("densities not skewed: first=%v last=%v", dens[0], dens[31])
	}
	for i, v := range dens {
		if v <= 0 || v >= 1 {
			t.Errorf("attribute %d density %v degenerate", i, v)
		}
	}
}

func TestKosarakCorrelation(t *testing.T) {
	d := Kosarak(20000, 2)
	// Pages 0 and 1 share a cluster: P(both) should exceed the product
	// of marginals noticeably.
	m := d.Marginal([]int{0, 1})
	n := float64(d.Len())
	p0 := (m.Cells[1] + m.Cells[3]) / n
	p1 := (m.Cells[2] + m.Cells[3]) / n
	p01 := m.Cells[3] / n
	if p01 < 1.1*p0*p1 {
		t.Errorf("clustered pages uncorrelated: joint=%v product=%v", p01, p0*p1)
	}
}

func TestAOLShape(t *testing.T) {
	d := AOL(1500, 3)
	if d.Dim() != 45 || d.Len() != 1500 {
		t.Fatalf("dim=%d len=%d", d.Dim(), d.Len())
	}
	dens := d.OneWayDensities()
	for i, v := range dens {
		if v <= 0 || v >= 0.9 {
			t.Errorf("attribute %d density %v out of expected range", i, v)
		}
	}
}

func TestMSNBCShape(t *testing.T) {
	d := MSNBC(3000, 4)
	if d.Dim() != 9 || d.Len() != 3000 {
		t.Fatalf("dim=%d len=%d", d.Dim(), d.Len())
	}
	dens := d.OneWayDensities()
	// Front page is visited by most archetypes; must be densest.
	for i := 1; i < 9; i++ {
		if dens[i] > dens[0] {
			t.Errorf("attribute %d denser than front page: %v > %v", i, dens[i], dens[0])
		}
	}
}

func TestMChainTransitionProbability(t *testing.T) {
	// For order 1: after a 1 the next bit is 1 with prob 0.25; after a 0
	// with prob 0.75. Verify empirically.
	d := MChain(1, 5000, 5)
	var after1Total, after1One, after0Total, after0One float64
	for _, r := range d.Records() {
		for i := 1; i < 64; i++ {
			prev := r >> uint(i-1) & 1
			cur := r >> uint(i) & 1
			if prev == 1 {
				after1Total++
				after1One += float64(cur)
			} else {
				after0Total++
				after0One += float64(cur)
			}
		}
	}
	p1 := after1One / after1Total
	p0 := after0One / after0Total
	if math.Abs(p1-0.25) > 0.02 {
		t.Errorf("P(1|1) = %v, want ~0.25", p1)
	}
	if math.Abs(p0-0.75) > 0.02 {
		t.Errorf("P(1|0) = %v, want ~0.75", p0)
	}
}

func TestMChainBalanced(t *testing.T) {
	// The chain is symmetric, so overall bit density should be ~0.5 for
	// every order.
	for order := 1; order <= 7; order++ {
		d := MChain(order, 1000, 6)
		ones := 0
		for _, r := range d.Records() {
			ones += bits.OnesCount64(r)
		}
		density := float64(ones) / float64(64*d.Len())
		if math.Abs(density-0.5) > 0.03 {
			t.Errorf("order %d: density = %v, want ~0.5", order, density)
		}
	}
}

func TestMChainRejectsBadOrder(t *testing.T) {
	for _, order := range []int{0, -1, 64} {
		func() {
			defer func() { _ = recover() }()
			MChain(order, 10, 1)
			t.Errorf("MChain(order=%d) did not panic", order)
		}()
	}
}

func TestUniformDensity(t *testing.T) {
	d := Uniform(16, 5000, 0.3, 7)
	dens := d.OneWayDensities()
	for i, v := range dens {
		if math.Abs(v-0.3) > 0.03 {
			t.Errorf("attribute %d density %v, want ~0.3", i, v)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Kosarak(100, 9)
	b := Kosarak(100, 9)
	for i := range a.Records() {
		if a.Record(i) != b.Record(i) {
			t.Fatal("Kosarak not deterministic for fixed seed")
		}
	}
	c := Kosarak(100, 10)
	same := true
	for i := range a.Records() {
		if a.Record(i) != c.Record(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

// kosarakMap is Kosarak as it was written with a map of boosted pages
// per record; the bitmask version must draw the same numbers in the
// same order and so build the same records.
func kosarakMap(n int, seed int64) []uint64 {
	const d = 32
	rng := noise.NewStream(seed).Derive("kosarak")
	base := make([]float64, d)
	for i := 0; i < d; i++ {
		base[i] = 0.5 / float64(i+2)
	}
	clusters := [][]int{
		{0, 1, 2, 3}, {2, 3, 4, 5, 6}, {7, 8, 9}, {10, 11, 12, 13},
		{1, 14, 15}, {16, 17, 18, 19, 20}, {21, 22, 23}, {24, 25, 26, 27},
		{28, 29, 30, 31}, {5, 9, 13, 17}, {0, 16, 24, 28},
	}
	records := make([]uint64, n)
	for r := 0; r < n; r++ {
		var rec uint64
		nc := 1 + rng.Intn(3)
		boost := make(map[int]bool, 8)
		for c := 0; c < nc; c++ {
			for _, p := range clusters[rng.Intn(len(clusters))] {
				boost[p] = true
			}
		}
		for i := 0; i < d; i++ {
			p := base[i]
			if boost[i] {
				p = 0.7 + 0.25*p
			}
			if rng.Float64() < p {
				rec |= 1 << uint(i)
			}
		}
		records[r] = rec
	}
	return records
}

func TestKosarakMatchesMapVersion(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 17} {
		got, want := Kosarak(5000, seed).Records(), kosarakMap(5000, seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d = %#x, want %#x", seed, i, got[i], want[i])
			}
		}
	}
}
