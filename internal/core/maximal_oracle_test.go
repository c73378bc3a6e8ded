package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"priview/internal/attrset"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// oracleInit is solveShared.init as it derived constraints before the
// mask-first derivation: project every view that meets the query, drop
// the non-finite projections, and hand the whole per-view set to
// Prepare, whose MaximalConstraints then merges it. It is kept as the
// exact oracle for the derivation that replaced it.
func oracleInit(sh *solveShared) {
	source := sh.syn.views
	if sh.raw {
		source = sh.syn.rawViews
	}
	if t := reconstruct.Covered(source, sh.attrs); t != nil {
		if reconstruct.FiniteTable(t) {
			sh.covered = t
			return
		}
		sh.degraded = &reconstruct.NumericalError{
			Solver: "direct", Iter: -1, Quantity: "covering view cell", Value: math.NaN(),
		}
	}
	cons := reconstruct.ConstraintsFromViews(source, sh.attrs)
	cons, dropped := reconstruct.DropNonFinite(cons)
	if dropped > 0 && sh.degraded == nil {
		sh.degraded = &reconstruct.NumericalError{
			Solver: "constraints", Iter: -1,
			Quantity: fmt.Sprintf("%d non-finite constraint table(s)", dropped), Value: math.NaN(),
		}
	}
	total := sh.syn.total
	if math.IsNaN(total) || math.IsInf(total, 0) {
		if sh.degraded == nil {
			sh.degraded = &reconstruct.NumericalError{Solver: "synopsis", Iter: -1, Quantity: "total", Value: total}
		}
		total = meanTotal(cons)
		if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 {
			total = 0
		}
	}
	sh.total = total
	sh.prep = reconstruct.Prepare(sh.attrs, total, cons)
}

// oracleQuery answers one query through oracleInit and the shared
// solve path.
func oracleQuery(s *Synopsis, attrs []int, method ReconstructMethod) (*marginal.Table, error) {
	sh := &solveShared{syn: s, attrs: marginal.New(attrs).Attrs, raw: method == LP}
	sh.once.Do(func() { oracleInit(sh) })
	return sh.solve(context.Background(), method, 0)
}

// sameAnswer reports how got differs from the oracle's answer: tables
// bit for bit, errors by errors.Is(ErrNumerical) and by message.
func sameAnswer(got, want *marginal.Table, gotErr, wantErr error) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("table %v, oracle %v", got, want)
	case got != nil && (!marginal.SameAttrs(got.Attrs, want.Attrs) || !bitIdentical(got.Cells, want.Cells)):
		return fmt.Sprintf("table %v, oracle %v", got, want)
	case (gotErr == nil) != (wantErr == nil),
		errors.Is(gotErr, reconstruct.ErrNumerical) != errors.Is(wantErr, reconstruct.ErrNumerical),
		gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("err %v, oracle %v", gotErr, wantErr)
	}
	return ""
}

// checkAgainstOracle answers every (query, method) pair through
// QueryMethodContext and through one QueryBatch, and requires both to
// match the oracle exactly. The oracle runs first, so the release's
// view facts are built by the queries under test. It returns how many
// oracle answers were degraded.
func checkAgainstOracle(t *testing.T, name string, s *Synopsis, queries [][]int, methods []ReconstructMethod) (degraded int) {
	t.Helper()
	type answer struct {
		table *marginal.Table
		err   error
	}
	var reqs []BatchRequest
	var want []answer
	for _, q := range queries {
		for _, m := range methods {
			tab, err := oracleQuery(s, q, m)
			if errors.Is(err, reconstruct.ErrNumerical) {
				degraded++
			}
			want = append(want, answer{tab, err})
			reqs = append(reqs, BatchRequest{Attrs: q, Method: m})
		}
	}
	for i, r := range reqs {
		got, err := s.QueryMethodContext(context.Background(), r.Attrs, r.Method)
		if d := sameAnswer(got, want[i].table, err, want[i].err); d != "" {
			t.Errorf("%s: single %v %v: %s", name, r.Attrs, r.Method, d)
		}
	}
	res, err := s.QueryBatch(context.Background(), reqs, BatchOptions{})
	if err != nil {
		t.Fatalf("%s: batch: %v", name, err)
	}
	for i, r := range reqs {
		if d := sameAnswer(res[i].Table, want[i].table, res[i].Err, want[i].err); d != "" {
			t.Errorf("%s: batch %v %v: %s", name, r.Attrs, r.Method, d)
		}
	}
	return degraded
}

// freshCopy returns a synopsis over copies of s's views whose view
// facts are not yet built, so a test can poison it before any query.
func freshCopy(s *Synopsis) *Synopsis {
	return &Synopsis{cfg: s.cfg, views: cloneViews(s.views), rawViews: cloneViews(s.rawViews), total: s.total}
}

// uncoveredQueries draws n random k-attribute sets over d attributes
// that no view of s covers, each holding the attributes of must.
func uncoveredQueries(s *Synopsis, d, k, n int, seed int64, must ...int) [][]int {
	rng := noise.NewStream(seed)
	var out [][]int
	for tries := 0; len(out) < n; tries++ {
		if tries == 10000 {
			panic(fmt.Sprintf("core: no uncovered %d-way query holds %v", k, must))
		}
		q := attrset.MustFromAttrs(must)
		for q.Card() < k {
			q = q.Union(attrset.Of(rng.Intn(d)))
		}
		covered := false
		for _, v := range s.views {
			if q.Subset(v.Mask()) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, q.Attrs())
		}
	}
	return out
}

var allMethods = []ReconstructMethod{CME, CMEDual, CLN, LP, CLP}

func msnbcOracleSynopsis() *Synopsis {
	data := synth.MSNBC(3000, 41)
	return BuildSynopsis(data, Config{Epsilon: 1, Design: covering.Groups(9, 4)}, noise.NewStream(42))
}

// kosarakRelease builds the Kosarak-shaped d=32 release on the planned
// C3(8,173) design, the shape uncovered 6-way serving traffic meets.
func kosarakRelease(tb testing.TB, n int) *Synopsis {
	tb.Helper()
	plan := PlanDesign(32, 1000000, 1, 1)
	if got := plan.Design.Name(); got != "C3(8,173)" {
		tb.Fatalf("planned %s, want C3(8,173)", got)
	}
	return BuildSynopsis(synth.Kosarak(n, 7), Config{Epsilon: 1, Design: plan.Design}, noise.NewStream(8))
}

// TestMaximalDerivationMatchesOracle pins every estimator's answer and
// error to the per-view derivation it replaced: on clean releases, and
// on releases carrying each kind of non-finite data the degradation
// path handles.
func TestMaximalDerivationMatchesOracle(t *testing.T) {
	base := msnbcOracleSynopsis()
	queries := allKWayAttrs(9, 3)
	queries = append(queries, uncoveredQueries(base, 9, 4, 12, 43)...)
	queries = append(queries, uncoveredQueries(base, 9, 5, 4, 44)...)
	if testing.Short() {
		// The race lane runs a sample: covered pairs and uncovered 3- to
		// 5-way sets.
		queries = [][]int{{0, 5}, {1, 6}, {2, 3}}
		queries = append(queries, uncoveredQueries(base, 9, 3, 4, 45)...)
		queries = append(queries, uncoveredQueries(base, 9, 4, 3, 43)...)
		queries = append(queries, uncoveredQueries(base, 9, 5, 1, 44)...)
	}

	poison := func(cells []float64, v float64) {
		for i := range cells {
			cells[i] = v
		}
	}
	cases := []struct {
		name string
		mut  func(s *Synopsis)
	}{
		{"clean", func(*Synopsis) {}},
		{"nan view", func(s *Synopsis) { s.views[0].Cells[3] = math.NaN() }},
		{"inf views", func(s *Synopsis) {
			s.views[1].Cells[2] = math.Inf(1)
			s.views[4].Cells[0] = math.Inf(-1)
		}},
		{"overflowing projections", func(s *Synopsis) {
			// Finite cells whose sums overflow: every projection onto a
			// strict subset is ±Inf.
			poison(s.views[2].Cells, 1e308)
			poison(s.views[5].Cells, -1e308)
		}},
		{"poisoned raw views", func(s *Synopsis) {
			poison(s.rawViews[0].Cells, math.NaN())
			s.rawViews[3].Cells[1] = math.Inf(1)
			poison(s.rawViews[6].Cells, 1e308)
		}},
		{"nan total", func(s *Synopsis) {
			s.total = math.NaN()
			s.views[7].Cells[0] = math.NaN()
		}},
		{"every view poisoned", func(s *Synopsis) {
			for _, v := range s.views {
				poison(v.Cells, math.NaN())
			}
			s.total = math.NaN()
		}},
	}
	for _, c := range cases {
		s := freshCopy(base)
		c.mut(s)
		if n := checkAgainstOracle(t, "msnbc/"+c.name, s, queries, allMethods); n == 0 && c.name != "clean" {
			t.Errorf("msnbc/%s: no answer degraded; the poison was never met", c.name)
		}
	}
}

// allKWayAttrs lists the attribute sets of AllKWay(d, k, ·).
func allKWayAttrs(d, k int) [][]int {
	var out [][]int
	for _, r := range AllKWay(d, k, CME) {
		out = append(out, r.Attrs)
	}
	return out
}

// TestMaximalDerivationAveragedOverflow covers the one way a merged
// constraint can be non-finite when each view's projection is finite:
// two views share a maximal intersection and their projections' sum
// overflows. The merged table is then ±Inf, and the answer must still
// be the oracle's.
func TestMaximalDerivationAveragedOverflow(t *testing.T) {
	views := []*marginal.Table{marginal.New([]int{0, 1, 2}), marginal.New([]int{0, 1, 3}), marginal.New([]int{2, 3, 4})}
	for _, v := range views {
		for i := range v.Cells {
			v.Cells[i] = float64(10 + i)
		}
	}
	// The opposite cells keep each view's total, and so the release's,
	// finite: only the merge overflows.
	for _, v := range views[:2] {
		v.Cells[0], v.Cells[1] = 1e308, -1e308
	}
	s := FromViews(views, Config{SkipPostprocess: true})
	if tot := s.Total(); math.IsNaN(tot) || math.IsInf(tot, 0) {
		t.Fatalf("release total %v, want finite", tot)
	}
	if n := checkAgainstOracle(t, "averaged overflow", s, [][]int{{0, 1, 4}, {0, 1, 2, 4}, {0, 3, 4}}, allMethods); n == 0 {
		t.Error("no answer degraded; the overflowing merge was never met")
	}
}

// TestMaximalDerivationMatchesOracleKosarak runs the oracle on the
// d=32 C3(8,173) release with 3-way and random uncovered 4- to 8-way
// queries, clean and with poisoned views. The raw-view LP, whose
// simplex takes ~0.3 s on a 4-way query here, runs on one query of
// each kind.
func TestMaximalDerivationMatchesOracleKosarak(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: plans and builds the C3(8,173) release")
	}
	base := kosarakRelease(t, 20000)
	// C3 covers every 3-way set, so the 3-way queries take the covered
	// path; from 4 attributes up they are uncovered.
	covered := [][]int{{0, 1, 2}, {3, 17, 30}}
	fourWay := uncoveredQueries(base, 32, 4, 4, 104)
	var larger [][]int
	for k := 5; k <= 8; k++ {
		larger = append(larger, uncoveredQueries(base, 32, k, 10-k, int64(100+k))...)
	}
	noLP := []ReconstructMethod{CME, CMEDual, CLN, CLP}
	checkAgainstOracle(t, "kosarak/clean", base, append(covered, fourWay[0]), allMethods)
	checkAgainstOracle(t, "kosarak/clean", base, fourWay[1:], noLP)
	checkAgainstOracle(t, "kosarak/clean", base, larger, []ReconstructMethod{CME, CMEDual, CLN})

	s := freshCopy(base)
	s.views[0].Cells[5] = math.NaN()
	s.views[17].Cells[0] = math.Inf(1)
	for i := range s.views[40].Cells {
		s.views[40].Cells[i] = -1e308
	}
	s.rawViews[3].Cells[2] = math.NaN()
	// Uncovered queries meeting each poisoned view, so each is dropped.
	var meeting [][]int
	for _, vi := range []int{0, 17, 40, 3} {
		meeting = append(meeting, uncoveredQueries(s, 32, 4, 1, int64(vi), s.views[vi].Attrs[:2]...)...)
	}
	if n := checkAgainstOracle(t, "kosarak/poisoned", s, meeting, noLP); n < 3*len(noLP) {
		t.Errorf("kosarak/poisoned: %d degraded answers, want every answer meeting views 0, 17 and 40", n)
	}
	if n := checkAgainstOracle(t, "kosarak/poisoned", s, meeting[3:], []ReconstructMethod{LP}); n != 1 {
		t.Errorf("kosarak/poisoned: raw-view LP degraded %d times, want 1", n)
	}
}

// TestViewFactsRace races single queries and batches on a fresh
// synopsis, so the view facts are built while other queries wait on
// them; every answer must equal the sequential one on an identical
// release. It runs under -short so the race lane covers it.
func TestViewFactsRace(t *testing.T) {
	ref := msnbcOracleSynopsis()
	queries := uncoveredQueries(ref, 9, 4, 6, 51)
	queries = append(queries, []int{0, 1}, []int{2, 7, 8})
	want := map[string]*marginal.Table{}
	key := func(q []int, m ReconstructMethod) string { return fmt.Sprint(q, m) }
	for _, q := range queries {
		for _, m := range allMethods {
			want[key(q, m)] = ref.QueryMethod(q, m)
		}
	}
	for round := 0; round < 4; round++ {
		s := msnbcOracleSynopsis()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				m := allMethods[(w+round)%len(allMethods)]
				if w%2 == 0 {
					for _, q := range queries {
						got, err := s.QueryMethodContext(context.Background(), q, m)
						if err != nil || !bitIdentical(got.Cells, want[key(q, m)].Cells) {
							t.Errorf("worker %d single %v %v: err %v, answer differs from sequential", w, q, m, err)
						}
					}
					return
				}
				reqs := make([]BatchRequest, len(queries))
				for i, q := range queries {
					reqs[i] = BatchRequest{Attrs: q, Method: m}
				}
				res, err := s.QueryBatch(context.Background(), reqs, BatchOptions{Workers: 2})
				if err != nil {
					t.Errorf("worker %d batch: %v", w, err)
					return
				}
				for i, q := range queries {
					if res[i].Err != nil || !bitIdentical(res[i].Table.Cells, want[key(q, m)].Cells) {
						t.Errorf("worker %d batch %v %v: err %v, answer differs from sequential", w, q, m, res[i].Err)
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}

// TestPrepareStageCoversLPSet: an uncovered query's trace records one
// core.prepare stage and then its estimator's stage, for every
// estimator. LP and CLP fold the build of their per-view set into that
// one core.prepare record rather than adding a second, so the
// per-stage histograms still count one observation per request.
func TestPrepareStageCoversLPSet(t *testing.T) {
	s := msnbcOracleSynopsis()
	q := uncoveredQueries(s, 9, 4, 1, 46)[0]
	for _, m := range allMethods {
		ctx, tr := telemetry.StartTrace(context.Background())
		if _, err := s.QueryMethodContext(ctx, q, m); err != nil {
			t.Fatalf("%v on %v: %v", m, q, err)
		}
		var names []string
		for _, st := range tr.Stages() {
			names = append(names, st.Name)
		}
		want := []string{"core.prepare", reconstructStage(m)}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Errorf("%v on %v: stages %v, want %v", m, q, names, want)
		}
	}
}
