package covering

import (
	"fmt"
	"testing"

	"priview/internal/noise"
)

// greedyFullScore is Greedy as it scored candidates before the
// contains-a count: every candidate a is ranked by the uncovered
// t-subsets of the whole block ∪ {a}, and the first uncovered subset is
// found by a scan from rank 0. It is kept as the exact oracle for
// Greedy.
func greedyFullScore(d, l, t int, rng *noise.Stream) *Design {
	cov := newCoverage(d, t)
	countNew := func(block []int) int {
		n := 0
		forEachSubset(block, t, func(sub []int) {
			if !cov.covered[cov.rank(sub)] {
				n++
			}
		})
		return n
	}
	var blocks [][]int
	for cov.left > 0 {
		var seed []int
		for r, ok := range cov.covered {
			if !ok {
				seed = cov.unrank(r)
				break
			}
		}
		block := append([]int(nil), seed...)
		inBlock := make([]bool, d)
		for _, a := range block {
			inBlock[a] = true
		}
		for len(block) < l {
			best, bestGain := -1, -1
			start := rng.Intn(d)
			for off := 0; off < d; off++ {
				a := (start + off) % d
				if inBlock[a] {
					continue
				}
				if gain := countNew(insertSorted(block, a)); gain > bestGain {
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

// TestGreedyMatchesFullScore pins Greedy block for block against the
// full-block scoring it replaced, over every t the planner supports
// and a spread of d, ℓ and seeds: the two scores differ by a constant
// per growth step, so the argmax, the tie-breaks and the stream draws
// must all agree.
func TestGreedyMatchesFullScore(t *testing.T) {
	for tt := 1; tt <= 4; tt++ {
		for _, dl := range [][2]int{{5, 3}, {9, 4}, {12, 6}, {17, 5}, {20, 8}, {26, 8}} {
			d, l := dl[0], dl[1]
			if tt > l {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				got := Greedy(d, l, tt, noise.NewStream(seed))
				want := greedyFullScore(d, l, tt, noise.NewStream(seed))
				if fmt.Sprint(got.Blocks) != fmt.Sprint(want.Blocks) {
					t.Fatalf("Greedy(%d,%d,%d) seed %d: %d blocks %v, oracle %d blocks %v",
						d, l, tt, seed, got.W(), got.Blocks, want.W(), want.Blocks)
				}
			}
		}
	}
}
