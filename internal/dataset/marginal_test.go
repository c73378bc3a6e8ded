package dataset_test

// The counting kernel against the per-bit scan and the kernel it
// replaced. bitLoopMarginal is a verbatim copy of the per-bit
// Dataset.Marginal loop, kept as the exact oracle.
// variableShiftMarginal is the byte-table kernel that preceded the
// constant-shift one, kept as the "Old" side of the before/after
// benchmark so both run in one binary on the same inputs.

import (
	"fmt"
	"math/rand"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
)

// bitLoopMarginal is the per-bit kernel: one shift/and/shift/or per
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

// variableShiftMarginal is the retired byte-table kernel: table k
// serves the k-th byte the view touches, read at a shift held in a
// variable, with unrolled loops for 1–4 touched bytes and a generic
// loop beyond.
func variableShiftMarginal(d *dataset.Dataset, attrs []int) *marginal.Table {
	t := marginal.New(attrs)
	var tabs [dataset.MaxDim / 8][256]uint32
	var shifts [dataset.MaxDim / 8]uint
	nb := 0
	for j, a := range t.Attrs {
		shift := uint(a) &^ 7
		if nb == 0 || shifts[nb-1] != shift {
			shifts[nb] = shift
			nb++
		}
		tab, bit := &tabs[nb-1], uint(a)&7
		for v := range tab {
			tab[v] |= uint32(v>>bit&1) << uint(j)
		}
	}
	cells, recs := t.Cells, d.Records()
	t0, t1, t2, t3 := &tabs[0], &tabs[1], &tabs[2], &tabs[3]
	s0, s1, s2, s3 := shifts[0], shifts[1], shifts[2], shifts[3]
	switch nb {
	case 1:
		for _, r := range recs {
			cells[t0[uint8(r>>s0)]]++
		}
	case 2:
		for _, r := range recs {
			cells[t0[uint8(r>>s0)]|t1[uint8(r>>s1)]]++
		}
	case 3:
		for _, r := range recs {
			cells[t0[uint8(r>>s0)]|t1[uint8(r>>s1)]|t2[uint8(r>>s2)]]++
		}
	case 4:
		for _, r := range recs {
			cells[t0[uint8(r>>s0)]|t1[uint8(r>>s1)]|t2[uint8(r>>s2)]|t3[uint8(r>>s3)]]++
		}
	default:
		for _, r := range recs {
			idx := uint32(0)
			for k := 0; k < nb; k++ {
				idx |= tabs[k][uint8(r>>shifts[k])]
			}
			cells[idx]++
		}
	}
	return t
}

func assertSameTable(t *testing.T, d *dataset.Dataset, attrs []int) {
	t.Helper()
	assertSameCells(t, fmt.Sprintf("dim %d attrs %v", d.Dim(), attrs), d.Marginal(attrs), bitLoopMarginal(d, attrs))
}

func assertSameCells(t *testing.T, what string, got, want *marginal.Table) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: %d cells, want %d", what, len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		//lint:ignore floatcmp both kernels add exactly 1.0 per record in record order; the tables must agree bit for bit
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("%s: cell %d = %v, want %v", what, i, got.Cells[i], want.Cells[i])
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
	// of the first n bytes, ending on attribute 63 for n = 8, so every
	// table position of the 8-lookup loop is exercised.
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

	// Each view below is checked on the full, empty and single-record
	// datasets of its dimension.
	check := func(dim int, attrs []int) {
		t.Helper()
		assertSameTable(t, dataset.New(dim, recs), attrs)
		assertSameTable(t, dataset.New(dim, nil), attrs)
		assertSameTable(t, dataset.New(dim, recs[:1]), attrs)
	}
	// d = 32 is the widest record the 4-lookup loop reads; d = 33 is
	// the narrowest the 8-lookup loop reads.
	check(32, []int{31})
	check(32, []int{0, 31})
	check(32, []int{24, 25, 26, 27, 28, 29, 30, 31})
	check(33, []int{32})
	check(33, []int{0, 32})
	check(33, []int{31, 32})
	check(33, []int{25, 26, 27, 28, 29, 30, 31, 32})
	check(33, []int{0, 8, 16, 24})
	// Views that lie only in bytes 4–7, so the low tables stay zero.
	for _, dim := range []int{33, 45, 64} {
		for _, k := range []int{1, 8, 9} {
			if k > dim-32 {
				continue
			}
			attrs := r.Perm(dim - 32)[:k]
			for i := range attrs {
				attrs[i] += 32
			}
			check(dim, attrs)
		}
	}
	check(64, []int{32, 63})
	check(64, []int{40, 41, 42, 43, 44, 45, 46, 47, 56, 57, 58, 59, 60, 61, 62, 63})
	// Views of 1, 8, 9, 16 and 20 attributes on both sides of the
	// boundary.
	for _, dim := range []int{20, 32, 33, 45, 64} {
		for _, k := range []int{1, 8, 9, 16, 20} {
			check(dim, r.Perm(dim)[:k])
		}
	}
	// FullContingency is Marginal over every attribute.
	for _, dim := range []int{1, 8, 9, 16, 20} {
		for _, d := range []*dataset.Dataset{dataset.New(dim, recs), dataset.New(dim, nil), dataset.New(dim, recs[:1])} {
			assertSameCells(t, fmt.Sprintf("FullContingency dim %d, %d records", dim, d.Len()), d.FullContingency(), bitLoopMarginal(d, d.Attrs()))
		}
	}
}

// --- counting kernel before/after: ℓ=8 Groups blocks over 200k
// records of the Kosarak-shaped d=32 data (the 4-lookup loop) and the
// AOL-shaped d=45 data (the 8-lookup loop), one op counting every
// view once.

var countSink *marginal.Table

func benchCounting(b *testing.B, count func(*dataset.Dataset, []int) *marginal.Table) {
	for _, c := range []struct {
		name string
		data *dataset.Dataset
	}{
		{"kosarak-d32", synth.Kosarak(200000, 1)},
		{"aol-d45", synth.AOL(200000, 1)},
	} {
		d := c.data
		blocks := covering.Groups(d.Dim(), 8).Blocks
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, bl := range blocks {
					countSink = count(d, bl)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)*d.Len()), "ns/record-view")
		})
	}
}

func BenchmarkMarginalOld(b *testing.B) { benchCounting(b, variableShiftMarginal) }

func BenchmarkMarginalNew(b *testing.B) {
	benchCounting(b, (*dataset.Dataset).Marginal)
}
