package core

import (
	"fmt"
	"testing"

	"priview/internal/reconstruct"
)

// The constraint preparation of an uncovered query (the core.prepare
// trace stage) on the d=32 C3(8,173) release, before and after the
// mask-first derivation, in one binary. Old projects every view meeting
// the query and leaves the merge to Prepare (oracleInit); New decides
// the maximal intersections on masks and projects only their views.
// Each iteration prepares one of 64 fixed uncovered queries; the
// release's view facts are built by the first New iteration, as the
// first query of a serving release builds them.
func benchPrepare(b *testing.B, prepare func(*solveShared)) {
	s := kosarakRelease(b, 50000)
	for _, k := range []int{4, 6} {
		queries := uncoveredQueries(s, 32, k, 64, int64(k))
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sh := &solveShared{syn: s, attrs: queries[i%len(queries)]}
				prepare(sh)
				prepSink = sh.prep
			}
		})
	}
}

var prepSink *reconstruct.Prepared

func BenchmarkPrepareOld(b *testing.B) { benchPrepare(b, oracleInit) }

func BenchmarkPrepareNew(b *testing.B) { benchPrepare(b, (*solveShared).init) }
