// Package synth generates the datasets the paper evaluates on. The three
// real datasets (Kosarak, AOL, MSNBC) are not redistributable, so this
// package produces synthetic stand-ins matched on dimensionality, record
// count and correlation structure; MCHAIN is generated exactly as the
// paper specifies. See DESIGN.md §3 for the substitution rationale.
package synth

import (
	"math/bits"

	"priview/internal/attrset"
	"priview/internal/dataset"
	"priview/internal/noise"
)

// Paper record counts, used as defaults by the generators.
const (
	KosarakN = 912627
	AOLN     = 647377
	MSNBCN   = 989818
	MChainN  = 500000
)

// Kosarak returns a d=32 click-stream-like dataset: each of the 32
// attributes is a popular page with power-law base popularity, and users
// belong to interest clusters that make related pages strongly
// correlated — the structure PriView's consistency and maxent steps
// exploit on the real Kosarak data.
func Kosarak(n int, seed int64) *dataset.Dataset {
	const d = 32
	rng := noise.NewStream(seed).Derive("kosarak")
	// Base popularity: page i is visited with probability ~ c / (i+2),
	// mimicking the heavy skew of the top-32 pages of a news portal.
	base := make([]float64, d)
	for i := 0; i < d; i++ {
		base[i] = 0.5 / float64(i+2)
	}
	// Interest clusters: overlapping groups of pages that tend to be
	// visited together. Cluster membership boosts each member page.
	clusters := [][]int{
		{0, 1, 2, 3}, {2, 3, 4, 5, 6}, {7, 8, 9}, {10, 11, 12, 13},
		{1, 14, 15}, {16, 17, 18, 19, 20}, {21, 22, 23}, {24, 25, 26, 27},
		{28, 29, 30, 31}, {5, 9, 13, 17}, {0, 16, 24, 28},
	}
	clusterSets := make([]attrset.Set, len(clusters))
	for i, c := range clusters {
		clusterSets[i] = attrset.MustFromAttrs(c)
	}
	records := make([]uint64, n)
	for r := 0; r < n; r++ {
		var rec uint64
		// Each user activates 1-3 clusters.
		nc := 1 + rng.Intn(3)
		var boost attrset.Set // pages in an activated cluster
		for c := 0; c < nc; c++ {
			boost = boost.Union(clusterSets[rng.Intn(len(clusterSets))])
		}
		for i := 0; i < d; i++ {
			p := base[i]
			if boost.Contains(i) {
				p = 0.7 + 0.25*p
			}
			if rng.Float64() < p {
				rec |= 1 << uint(i)
			}
		}
		records[r] = rec
	}
	return dataset.New(d, records)
}

// AOL returns a d=45 search-log-like dataset: 45 WordNet-style topic
// categories; each user draws 1-3 latent interests, and each interest
// activates an overlapping subset of categories with high probability.
func AOL(n int, seed int64) *dataset.Dataset {
	const d = 45
	rng := noise.NewStream(seed).Derive("aol")
	// 12 latent topics, each touching 4-8 categories; overlaps create
	// the cross-category correlations of hypernym generalization.
	topics := [][]int{
		{0, 1, 2, 3}, {3, 4, 5, 6, 7}, {8, 9, 10, 11, 12}, {12, 13, 14},
		{15, 16, 17, 18, 19, 20}, {20, 21, 22, 23}, {24, 25, 26, 27, 28},
		{28, 29, 30, 31}, {32, 33, 34, 35, 36}, {36, 37, 38, 39},
		{40, 41, 42, 43, 44}, {0, 15, 24, 32, 40},
	}
	// Sparse ambient noise: any category can appear with small prob.
	records := make([]uint64, n)
	for r := 0; r < n; r++ {
		var rec uint64
		nt := 1 + rng.Intn(3)
		for t := 0; t < nt; t++ {
			topic := topics[rng.Intn(len(topics))]
			for _, c := range topic {
				if rng.Float64() < 0.65 {
					//lint:ignore attrset record bit-packing of a sampled topic, not an attribute-set value
					rec |= 1 << uint(c)
				}
			}
		}
		for i := 0; i < d; i++ {
			if rng.Float64() < 0.03 {
				rec |= 1 << uint(i)
			}
		}
		records[r] = rec
	}
	return dataset.New(d, records)
}

// MSNBC returns a d=9 click-stream-like dataset: 9 page categories and a
// small set of user archetypes (front-page skimmer, news reader, sports
// fan, ...) whose per-category visit probabilities induce the
// correlations the d=9 comparison in the paper's Fig. 1 runs on.
func MSNBC(n int, seed int64) *dataset.Dataset {
	const d = 9
	rng := noise.NewStream(seed).Derive("msnbc")
	// Archetype visit probabilities are blended with a common base rate:
	// the real MSNBC data's joint distribution factorizes well beyond
	// pairwise structure (the paper's PriView matches Flat on it with a
	// pair-covering design), so the stand-in keeps high-order
	// correlations mild.
	base := [d]float64{0.55, 0.25, 0.18, 0.18, 0.12, 0.14, 0.12, 0.14, 0.1}
	raw := [][d]float64{
		{0.9, 0.1, 0.05, 0.05, 0.02, 0.02, 0.02, 0.02, 0.02}, // front page only
		{0.8, 0.7, 0.6, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05},    // news reader
		{0.5, 0.05, 0.05, 0.8, 0.7, 0.1, 0.05, 0.05, 0.1},    // sports fan
		{0.4, 0.3, 0.1, 0.1, 0.05, 0.8, 0.7, 0.3, 0.1},       // business/tech
		{0.3, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.8, 0.7},        // lifestyle
		{0.7, 0.5, 0.4, 0.4, 0.3, 0.4, 0.3, 0.3, 0.3},        // heavy user
	}
	const blend = 0.65 // weight of the shared base rate
	archetypes := make([][d]float64, len(raw))
	for a := range raw {
		for i := 0; i < d; i++ {
			archetypes[a][i] = blend*base[i] + (1-blend)*raw[a][i]
		}
	}
	weights := []float64{0.35, 0.2, 0.15, 0.12, 0.1, 0.08}
	records := make([]uint64, n)
	for r := 0; r < n; r++ {
		a := sampleWeighted(rng, weights)
		var rec uint64
		for i := 0; i < d; i++ {
			if rng.Float64() < archetypes[a][i] {
				rec |= 1 << uint(i)
			}
		}
		records[r] = rec
	}
	return dataset.New(d, records)
}

func sampleWeighted(rng *noise.Stream, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	x := rng.Float64() * total
	for i, v := range w {
		x -= v
		if x < 0 {
			return i
		}
	}
	return len(w) - 1
}

// MChain generates the paper's MCHAIN synthetic data: records are 64-bit
// stationary binary sequences from an order-i Markov chain where, given
// the previous i bits with s ones, the next bit is 1 with probability
// 0.5 + (1 - 2s/i)/4 (§5, following Usatenko & Yampol'skii). The first i
// bits of each record are uniform.
func MChain(order, n int, seed int64) *dataset.Dataset {
	const d = 64
	if order < 1 || order >= d {
		panic("synth: MChain order must be in [1, 63]")
	}
	rng := noise.NewStream(seed).DeriveIndexed("mchain", order)
	mask := (uint64(1) << uint(order)) - 1
	records := make([]uint64, n)
	for r := 0; r < n; r++ {
		var rec uint64
		for i := 0; i < order; i++ {
			if rng.Float64() < 0.5 {
				rec |= 1 << uint(i)
			}
		}
		for i := order; i < d; i++ {
			prev := (rec >> uint(i-order)) & mask
			s := float64(bits.OnesCount64(prev))
			p := 0.5 + (1-2*s/float64(order))/4
			if rng.Float64() < p {
				rec |= 1 << uint(i)
			}
		}
		records[r] = rec
	}
	return dataset.New(d, records)
}

// Uniform returns n records over d attributes with each bit independent
// Bernoulli(p) — useful as an uncorrelated control in tests.
func Uniform(d, n int, p float64, seed int64) *dataset.Dataset {
	rng := noise.NewStream(seed).Derive("uniform")
	records := make([]uint64, n)
	for r := 0; r < n; r++ {
		var rec uint64
		for i := 0; i < d; i++ {
			if rng.Float64() < p {
				rec |= 1 << uint(i)
			}
		}
		records[r] = rec
	}
	return dataset.New(d, records)
}
