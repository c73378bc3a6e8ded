package attrset_test

// IntersectionClosure's O(M·w) fixpoint against the O(M²) one it
// replaced. quadraticClosure is a verbatim copy of the retired kernel
// (members intersected with every known member), kept as the oracle:
// the two must return the identical slice, not merely the same set.

import (
	"reflect"
	"sort"
	"testing"

	"priview/internal/attrset"
	"priview/internal/covering"
)

func quadraticClosure(sets []attrset.Set) []attrset.Set {
	closure := map[attrset.Set]struct{}{}
	var members, work []attrset.Set
	push := func(m attrset.Set) {
		if _, ok := closure[m]; !ok {
			closure[m] = struct{}{}
			members = append(members, m)
			work = append(work, m)
		}
	}
	push(0)
	for _, s := range sets {
		push(s)
	}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for i := 0; i < len(members); i++ {
			push(cur & members[i])
		}
	}
	out := make([]attrset.Set, 0, len(closure))
	for m := range closure {
		if m == 0 {
			out = append(out, m)
			continue
		}
		n := 0
		for _, s := range sets {
			if m.Subset(s) {
				n++
				if n == 2 {
					break
				}
			}
		}
		if n >= 2 {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Card(), out[j].Card()
		if ci != cj {
			return ci < cj
		}
		return out[i] < out[j]
	})
	return out
}

func masksOf(blocks [][]int) []attrset.Set {
	out := make([]attrset.Set, len(blocks))
	for i, b := range blocks {
		out[i] = attrset.MustFromAttrs(b)
	}
	return out
}

func assertSameClosure(t *testing.T, name string, sets []attrset.Set) {
	t.Helper()
	got, want := attrset.IntersectionClosure(sets), quadraticClosure(sets)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: closure of %d sets differs from the quadratic kernel's (%d vs %d members)",
			name, len(sets), len(got), len(want))
	}
}

func TestIntersectionClosureMatchesQuadratic(t *testing.T) {
	// Random families of varied width and density over up to 64
	// attributes, from a fixed LCG so the run replays identically.
	state := uint64(29)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		x := state ^ state>>33 // mix the weak low bits of the LCG
		x *= 0xff51afd7ed558ccd
		return x ^ x>>33
	}
	for trial := 0; trial < 200; trial++ {
		w := 1 + int(next()%12)
		// A random window of 8–64 attributes, each set filled at density
		// 1/2 or 3/4, so closures range from a handful of members to over
		// a thousand.
		width := 8 + next()%57
		window := ^uint64(0) >> (64 - width) << (next() % (65 - width))
		sets := make([]attrset.Set, w)
		for i := range sets {
			m := next()
			if next()%2 == 0 {
				m |= next()
			}
			sets[i] = attrset.Set(m & window)
		}
		if trial%4 == 0 {
			sets = append(sets, sets[0]) // duplicate inputs
		}
		assertSameClosure(t, "random", sets)
	}
	assertSameClosure(t, "empty family", nil)

	// The designs the planner hands the consistency pass.
	assertSameClosure(t, "C2(6,3) d=9", masksOf(covering.Groups(9, 6).Blocks))
	ap, err := covering.AffinePlane(8)
	if err != nil {
		t.Fatal(err)
	}
	assertSameClosure(t, ap.Name()+" d=64", masksOf(ap.Blocks))
	c3 := covering.Best(32, 8, 3, 1, 4)
	if c3.Name() != "C3(8,173)" {
		t.Fatalf("design for d=32 t=3 is %s, want C3(8,173)", c3.Name())
	}
	assertSameClosure(t, c3.Name()+" d=32", masksOf(c3.Blocks))
}

// --- closure kernel before/after on the Kosarak-scale C3(8,173)
// design, where M is large enough for the O(M²) fixpoint to dominate.

var closureSink []attrset.Set

func benchClosureC3(b *testing.B, closure func([]attrset.Set) []attrset.Set) {
	sets := masksOf(covering.Best(32, 8, 3, 1, 4).Blocks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closureSink = closure(sets)
	}
}

func BenchmarkIntersectionClosureC3Old(b *testing.B) { benchClosureC3(b, quadraticClosure) }

func BenchmarkIntersectionClosureC3New(b *testing.B) {
	benchClosureC3(b, attrset.IntersectionClosure)
}
