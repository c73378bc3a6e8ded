// Package covering constructs (w, ℓ, t)-covering designs: collections of
// w blocks of ℓ attributes each such that every t-subset of the d
// attributes appears in at least one block (Definition 3 in the paper).
// PriView uses these designs as its view sets. The paper looked designs
// up in the La Jolla repository; this package constructs them offline
// with an affine-plane construction (optimal for t=2 when d = q^2),
// a group-pair construction, and a randomized greedy with redundancy
// pruning, returning the best design found.
package covering

import (
	"fmt"
	"sort"

	"priview/internal/noise"
)

// Design is a covering design over attributes {0, ..., D-1}. Every block
// is sorted ascending and has between 2 and L attributes (constructions
// may produce some blocks shorter than L when d is not a multiple of the
// natural construction size; shorter blocks only help accuracy since
// they receive the same per-view budget but have fewer cells).
type Design struct {
	D      int     // number of attributes
	T      int     // every T-subset is covered
	L      int     // maximum block size
	Blocks [][]int // the views
}

// W returns the number of blocks, the w in C_t(ℓ, w).
func (dg *Design) W() int { return len(dg.Blocks) }

// Name renders the paper's C_t(ℓ, w) notation.
func (dg *Design) Name() string {
	return fmt.Sprintf("C%d(%d,%d)", dg.T, dg.L, dg.W())
}

// Verify checks that every t-subset of {0..D-1} is contained in at least
// one block and that blocks are well-formed. It returns the first
// violation found.
func (dg *Design) Verify() error {
	if dg.T < 1 || dg.T > dg.L || dg.L > dg.D {
		return fmt.Errorf("covering: invalid parameters t=%d ℓ=%d d=%d", dg.T, dg.L, dg.D)
	}
	for i, b := range dg.Blocks {
		if len(b) < 1 || len(b) > dg.L {
			return fmt.Errorf("covering: block %d has %d attributes, max %d", i, len(b), dg.L)
		}
		for j, a := range b {
			if a < 0 || a >= dg.D {
				return fmt.Errorf("covering: block %d contains out-of-range attribute %d", i, a)
			}
			if j > 0 && b[j] <= b[j-1] {
				return fmt.Errorf("covering: block %d not sorted strictly ascending", i)
			}
		}
	}
	uncovered := firstUncovered(dg.D, dg.T, dg.Blocks)
	if uncovered != nil {
		return fmt.Errorf("covering: %v not covered by any block", uncovered)
	}
	return nil
}

// firstUncovered returns some t-subset not contained in any block, or
// nil if all are covered.
func firstUncovered(d, t int, blocks [][]int) []int {
	cov := newCoverage(d, t)
	for _, b := range blocks {
		cov.addBlock(b)
	}
	return cov.firstUncovered()
}

// coverage tracks which t-subsets are covered, for t in {1, 2, 3, 4}.
// Subsets are ranked by the combinatorial number system.
type coverage struct {
	d, t    int
	covered []bool
	left    int
	// next is a lower bound on the first uncovered rank: subsets are
	// only ever marked, never unmarked, so firstUncovered resumes its
	// scan there.
	next int
}

func newCoverage(d, t int) *coverage {
	if t < 1 || t > 4 {
		panic(fmt.Sprintf("covering: t=%d unsupported (1..4)", t))
	}
	n := binom(d, t)
	return &coverage{d: d, t: t, covered: make([]bool, n), left: n}
}

// rank maps a strictly increasing t-tuple to its index.
func (c *coverage) rank(sub []int) int {
	r := 0
	for i, v := range sub {
		r += binom(v, i+1)
	}
	return r
}

func (c *coverage) mark(sub []int) {
	r := c.rank(sub)
	if !c.covered[r] {
		c.covered[r] = true
		c.left--
	}
}

func (c *coverage) isCovered(sub []int) bool { return c.covered[c.rank(sub)] }

// addBlock marks all t-subsets of the block as covered and returns how
// many were newly covered.
func (c *coverage) addBlock(block []int) int {
	before := c.left
	forEachSubset(block, c.t, func(sub []int) { c.mark(sub) })
	return before - c.left
}

// countNewWith returns how many of the t-subsets s ∪ {a} are still
// uncovered, for s over subs: the (t−1)-subsets of a block not holding
// a, each sorted. Those are exactly the t-subsets of block ∪ {a} that
// contain a, so the count differs from block ∪ {a}'s uncovered count
// by block's own, which every candidate a shares: ranking candidates by
// it gives the same argmax and the same tie-breaks.
func (c *coverage) countNewWith(subs [][]int, a int) int {
	n := 0
	for _, s := range subs {
		// Rank the sorted tuple s ∪ {a}: members below a keep their
		// slot, a takes the next, and members above a shift up one.
		r, i := 0, 0
		for ; i < len(s) && s[i] < a; i++ {
			r += binom(s[i], i+1)
		}
		r += binom(a, i+1)
		for ; i < len(s); i++ {
			r += binom(s[i], i+2)
		}
		if !c.covered[r] {
			n++
		}
	}
	return n
}

func (c *coverage) firstUncovered() []int {
	for ; c.next < len(c.covered); c.next++ {
		if !c.covered[c.next] {
			return c.unrank(c.next)
		}
	}
	return nil
}

// unrank inverts rank.
func (c *coverage) unrank(r int) []int {
	sub := make([]int, c.t)
	for i := c.t; i >= 1; i-- {
		// Largest v with binom(v, i) <= r.
		v := i - 1
		for binom(v+1, i) <= r {
			v++
		}
		sub[i-1] = v
		r -= binom(v, i)
	}
	return sub
}

// forEachSubset calls fn for every size-t subset of the sorted slice set.
// The callback must not retain the slice.
func forEachSubset(set []int, t int, fn func([]int)) {
	if t > len(set) {
		return
	}
	idx := make([]int, t)
	sub := make([]int, t)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, j := range idx {
			sub[i] = set[j]
		}
		fn(sub)
		// Advance.
		i := t - 1
		for i >= 0 && idx[i] == len(set)-t+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < t; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// pascal holds C(n, k) for n ≤ 64, every coefficient a d ≤ 64 design
// ranks subsets with. It is built once at init and only read after, so
// concurrent planners share it without a lock.
var pascal = func() (p [65][65]int) {
	for n := range p {
		p[n][0] = 1
		for k := 1; k <= n; k++ {
			p[n][k] = p[n-1][k-1] + p[n-1][k]
		}
	}
	return p
}()

// binom returns C(n, k), 0 outside 0 ≤ k ≤ n. Beyond the table it uses
// the multiplicative formula, exact while C(n, k)·k fits an int; each
// step r·(n−k+i)/i is C(n−k+i, i), so the division never truncates.
func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if n < len(pascal) {
		return pascal[n][k]
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// Binom exposes the binomial coefficient for error formulas elsewhere.
func Binom(n, k int) int { return binom(n, k) }

// Greedy builds a covering design by repeatedly growing a block around an
// uncovered t-subset, each time adding the attribute that covers the most
// still-uncovered t-subsets. Ties are broken by the provided stream so
// repeated runs explore different designs.
func Greedy(d, l, t int, rng *noise.Stream) *Design {
	if t > l || l > d {
		panic(fmt.Sprintf("covering: invalid greedy parameters d=%d ℓ=%d t=%d", d, l, t))
	}
	cov := newCoverage(d, t)
	var blocks [][]int
	for cov.left > 0 {
		seed := cov.firstUncovered()
		block := append([]int(nil), seed...)
		inBlock := make([]bool, d)
		for _, a := range block {
			inBlock[a] = true
		}
		for len(block) < l {
			var subs [][]int
			forEachSubset(block, t-1, func(sub []int) { subs = append(subs, append([]int(nil), sub...)) })
			best, bestGain := -1, -1
			start := rng.Intn(d)
			for off := 0; off < d; off++ {
				a := (start + off) % d
				if inBlock[a] {
					continue
				}
				gain := cov.countNewWith(subs, a)
				if gain > bestGain {
					bestGain = gain
					best = a
				}
			}
			if best < 0 {
				break
			}
			block = insertSorted(block, best)
			inBlock[best] = true
		}
		cov.addBlock(block)
		blocks = append(blocks, block)
	}
	dg := &Design{D: d, T: t, L: l, Blocks: blocks}
	dg.prune()
	return dg
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	out := make([]int, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	out = append(out, s[i:]...)
	return out
}

// prune removes blocks all of whose t-subsets are covered by other
// blocks, scanning from the largest-index block down (later greedy blocks
// are most likely redundant). It maintains per-subset reference counts so
// the whole pass is linear in total block content.
func (dg *Design) prune() {
	cov := newCoverage(dg.D, dg.T)
	refs := make([]int, len(cov.covered))
	for _, b := range dg.Blocks {
		forEachSubset(b, dg.T, func(sub []int) { refs[cov.rank(sub)]++ })
	}
	kept := make([][]int, 0, len(dg.Blocks))
	for i := len(dg.Blocks) - 1; i >= 0; i-- {
		b := dg.Blocks[i]
		redundant := true
		forEachSubset(b, dg.T, func(sub []int) {
			if refs[cov.rank(sub)] < 2 {
				redundant = false
			}
		})
		if redundant {
			forEachSubset(b, dg.T, func(sub []int) { refs[cov.rank(sub)]-- })
		} else {
			kept = append(kept, b)
		}
	}
	// Restore original ordering (we appended in reverse).
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	dg.Blocks = kept
}

// Groups is the pair-covering construction from grouping: attributes are
// partitioned into g = ceil(2d/ℓ) groups of ~ℓ/2 and the blocks are the
// unions of all group pairs. Every within-group and cross-group pair is
// covered. For d=9, ℓ=6 this yields the paper's C_2(6,3).
func Groups(d, l int) *Design {
	if l < 2 || l > d {
		panic(fmt.Sprintf("covering: invalid group parameters d=%d ℓ=%d", d, l))
	}
	half := l / 2
	g := (d + half - 1) / half
	if g < 2 {
		g = 2
	}
	groups := make([][]int, g)
	for a := 0; a < d; a++ {
		i := a % g
		groups[i] = append(groups[i], a)
	}
	var blocks [][]int
	for i := 0; i < g; i++ {
		for j := i + 1; j < g; j++ {
			b := append(append([]int(nil), groups[i]...), groups[j]...)
			sort.Ints(b)
			if len(b) > l {
				// Over-full unions can occur when d is not divisible by
				// g; split the union into overlapping ℓ-sized windows.
				for s := 0; s < len(b); s += l - 1 {
					e := s + l
					if e > len(b) {
						e = len(b)
						s = e - l
						if s < 0 {
							s = 0
						}
					}
					blocks = append(blocks, append([]int(nil), b[s:e]...))
					if e == len(b) {
						break
					}
				}
			} else {
				blocks = append(blocks, b)
			}
		}
	}
	dg := &Design{D: d, T: 2, L: l, Blocks: blocks}
	dg.prune()
	return dg
}

// AffinePlane returns the lines of AG(2, q) as a covering design on
// d = q^2 points with block size q: q^2 + q lines covering every pair
// exactly once — an optimal C_2(q, q^2+q). For d=64, q=8 this is the
// paper's C_2(8, 72). Returns an error when GF(q) is unsupported.
func AffinePlane(q int) (*Design, error) {
	f, err := newField(q)
	if err != nil {
		return nil, err
	}
	d := q * q
	point := func(x, y int) int { return x*q + y }
	var blocks [][]int
	// Lines y = m*x + b.
	for m := 0; m < q; m++ {
		for b := 0; b < q; b++ {
			line := make([]int, q)
			for x := 0; x < q; x++ {
				line[x] = point(x, f.Add(f.Mul(m, x), b))
			}
			sort.Ints(line)
			blocks = append(blocks, line)
		}
	}
	// Vertical lines x = c.
	for c := 0; c < q; c++ {
		line := make([]int, q)
		for y := 0; y < q; y++ {
			line[y] = point(c, y)
		}
		sort.Ints(line)
		blocks = append(blocks, line)
	}
	return &Design{D: d, T: 2, L: q, Blocks: blocks}, nil
}

// Best returns the smallest design found among the applicable
// constructions: affine plane (when d = ℓ^2 and t = 2), the group
// construction (t = 2), and `restarts` randomized greedy runs. The result
// is always verified before being returned.
func Best(d, l, t int, seed int64, restarts int) *Design {
	if restarts < 1 {
		restarts = 1
	}
	var best *Design
	consider := func(dg *Design) {
		if dg == nil {
			return
		}
		if err := dg.Verify(); err != nil {
			panic(fmt.Sprintf("covering: construction produced invalid design: %v", err))
		}
		if best == nil || dg.W() < best.W() {
			best = dg
		}
	}
	if t == 2 && l*l == d {
		if ap, err := AffinePlane(l); err == nil {
			consider(ap)
		}
	}
	if t == 2 {
		if m, ok := log2(d); ok {
			if r, ok := log2(l); ok {
				if bc, err := BinarySubspaceCover(m, r); err == nil {
					consider(bc)
				}
			}
		}
		consider(Groups(d, l))
	}
	root := noise.NewStream(seed)
	for r := 0; r < restarts; r++ {
		consider(Greedy(d, l, t, root.DeriveIndexed("greedy", r)))
	}
	return best
}

// log2 returns (k, true) when v == 2^k for some k ≥ 1.
func log2(v int) (int, bool) {
	if v < 2 || v&(v-1) != 0 {
		return 0, false
	}
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k, true
}

// CoversSet reports whether some block contains the whole attribute set.
func (dg *Design) CoversSet(attrs []int) bool {
	for _, b := range dg.Blocks {
		if containsAll(b, attrs) {
			return true
		}
	}
	return false
}

func containsAll(block, attrs []int) bool {
	i := 0
	for _, a := range attrs {
		for i < len(block) && block[i] < a {
			i++
		}
		if i >= len(block) || block[i] != a {
			return false
		}
	}
	return true
}
