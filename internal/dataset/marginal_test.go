package dataset_test

// The byte-table counting kernel against the per-bit scan it replaced.
// bitLoopMarginal is a verbatim copy of the retired Dataset.Marginal
// loop, kept as the exact oracle and as the "Old" side of the
// before/after benchmark so both run in one binary on the same inputs.

import (
	"math/rand"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
)

// bitLoopMarginal is the retired kernel: one shift/and/shift/or per
// attribute per record.
func bitLoopMarginal(d *dataset.Dataset, attrs []int) *marginal.Table {
	t := marginal.New(attrs)
	srcBits := make([]uint, len(t.Attrs))
	for i, a := range t.Attrs {
		srcBits[i] = uint(a)
	}
	for _, r := range d.Records() {
		idx := 0
		for j, b := range srcBits {
			idx |= int((r>>b)&1) << uint(j)
		}
		t.Cells[idx]++
	}
	return t
}

func assertSameTable(t *testing.T, d *dataset.Dataset, attrs []int) {
	t.Helper()
	got, want := d.Marginal(attrs), bitLoopMarginal(d, attrs)
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("dim %d attrs %v: %d cells, want %d", d.Dim(), attrs, len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		//lint:ignore floatcmp both kernels add exactly 1.0 per record in record order; the tables must agree bit for bit
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("dim %d attrs %v: cell %d = %v, want %v", d.Dim(), attrs, i, got.Cells[i], want.Cells[i])
		}
	}
}

func TestMarginalMatchesBitLoop(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, dim := range []int{1, 7, 8, 9, 31, 32, 33, 63, 64} {
		recs := make([]uint64, 3000)
		for i := range recs {
			// Mix dense and sparse records so both kinds of cell pattern occur.
			recs[i] = r.Uint64()
			if i%3 == 0 {
				recs[i] &= r.Uint64() & r.Uint64()
			}
		}
		d := dataset.New(dim, recs)
		empty := dataset.New(dim, nil)
		for trial := 0; trial < 40; trial++ {
			k := 1 + r.Intn(16)
			if k > dim {
				k = dim
			}
			attrs := r.Perm(dim)[:k]
			assertSameTable(t, d, attrs)
			assertSameTable(t, empty, attrs)
		}
		// The highest attribute alone, and with the lowest.
		assertSameTable(t, d, []int{dim - 1})
		if dim > 1 {
			assertSameTable(t, d, []int{0, dim - 1})
		}
	}
	// Views touching exactly 1..8 record bytes: one attribute in each
	// of the first n bytes, ending on attribute 63 for n = 8, so both
	// the unrolled and the generic loops are exercised.
	recs := make([]uint64, 5000)
	for i := range recs {
		recs[i] = r.Uint64()
	}
	d, empty := dataset.New(64, recs), dataset.New(64, nil)
	for n := 1; n <= 8; n++ {
		var attrs []int
		for b := 0; b < n; b++ {
			attrs = append(attrs, 8*b+r.Intn(8))
			if b == 7 {
				attrs[len(attrs)-1] = 63
			}
		}
		assertSameTable(t, d, attrs)
		assertSameTable(t, empty, attrs)
		// Two attributes per byte, shuffled: Marginal sorts its input.
		var wide []int
		for b := 0; b < n; b++ {
			wide = append(wide, 8*b, 8*b+7)
		}
		r.Shuffle(len(wide), func(i, j int) { wide[i], wide[j] = wide[j], wide[i] })
		assertSameTable(t, d, wide)
	}
}

// --- counting kernel before/after: the Kosarak-shaped d=32, ℓ=8
// blocks over 200k records, one op counting every view once.

var countSink *marginal.Table

func benchCounting(b *testing.B, count func(*dataset.Dataset, []int) *marginal.Table) {
	d := synth.Kosarak(200000, 1)
	blocks := covering.Groups(32, 8).Blocks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bl := range blocks {
			countSink = count(d, bl)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)*d.Len()), "ns/record-view")
}

func BenchmarkMarginalOld(b *testing.B) { benchCounting(b, bitLoopMarginal) }

func BenchmarkMarginalNew(b *testing.B) {
	benchCounting(b, (*dataset.Dataset).Marginal)
}
