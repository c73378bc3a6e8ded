package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/snapshot"
)

// releaseName is the one release in the benchmark's registry root.
const releaseName = "kosarak"

// profile is a serve workload: its traffic and its rates.
type profile struct {
	// nominal is the open-loop rate in requests per second of the
	// nominal rungs, well below the closed-loop capacity.
	nominal float64
	// ceiling bounds the closed-loop capacity in requests per second:
	// the saturation rung draws ceiling requests for each of its
	// seconds.
	ceiling float64
	// batchEvery makes every batchEvery-th request a batch POST.
	batchEvery int
	// keepSingle and keepBatch sample every n-th single and batch for
	// the correctness gate.
	keepSingle, keepBatch int
	// traffic builds the workload's queries from the fixture.
	traffic func(f *fixture) traffic
}

// traffic draws the attribute sets of single and batch requests.
type traffic interface {
	single(s *noise.Stream) []int
	batch(s *noise.Stream) [][]int
	// warmSet lists the queries set-up warms into the cache.
	warmSet() [][]int
}

var hotProfile = profile{
	nominal: 1500, ceiling: 20000, batchEvery: 8,
	keepSingle: 50, keepBatch: 10,
	traffic: newHotTraffic,
}

var coldProfile = profile{
	nominal: 150, ceiling: 4000, batchEvery: 4,
	keepSingle: 20, keepBatch: 10,
	traffic: newColdTraffic,
}

// Hot traffic: a pool of 256 attribute sets of 2 to 8 attributes, drawn
// Zipf(1.1); batches are 16 draws from the same pool. The seed picks
// the attributes; the size of the set at each popularity rank follows a
// fixed cycle down from 8 to 2, so every seed costs the server alike
// and the most requested answers are the largest to encode.
const (
	hotPool    = 256
	hotZipfS   = 1.1
	hotMinSize = 2
	hotMaxSize = 8
)

type hotTraffic struct {
	pool [][]int
	z    zipf
}

func newHotTraffic(f *fixture) traffic {
	s := f.rng.Derive("hot-pool")
	seen := map[string]bool{}
	var pool [][]int
	for len(pool) < hotPool {
		q := randomSet(s, dims, hotMaxSize-len(pool)%(hotMaxSize-hotMinSize+1))
		if k := fmt.Sprint(q); !seen[k] {
			seen[k] = true
			pool = append(pool, q)
		}
	}
	return &hotTraffic{pool: pool, z: newZipf(hotPool, hotZipfS)}
}

func (h *hotTraffic) single(s *noise.Stream) []int { return h.pool[h.z.draw(s)] }

func (h *hotTraffic) batch(s *noise.Stream) [][]int {
	b := make([][]int, batchSize)
	for i := range b {
		b[i] = h.single(s)
	}
	return b
}

func (h *hotTraffic) warmSet() [][]int { return h.pool }

// Cold traffic: uncovered 6-way singles uniform over all 6-sets, and
// batches of 16 random 4-way sets. The working set is far larger than
// the server's 4096-entry cache.
type coldTraffic struct{ f *fixture }

func newColdTraffic(f *fixture) traffic { return coldTraffic{f: f} }

func (c coldTraffic) single(s *noise.Stream) []int  { return c.f.uncoveredSet(s, singleK) }
func (c coldTraffic) batch(s *noise.Stream) [][]int { return randomBatch(s) }
func (c coldTraffic) warmSet() [][]int              { return nil }

// serveSetups is how many times a serve run starts its server; setup_s
// is the median. A start takes a fraction of a second, so a run can
// afford more of them than of the publish workload's set-up.
const serveSetups = 7

// lagLimit bounds the dispatcher's p99 lateness on a nominal rung;
// beyond it the generator, not the server, set the latencies, and the
// rung is played again.
const lagLimit = 20 * time.Millisecond

// runServe is the serve-hot and serve-cold workload: build one release,
// serve it from a temporary registry root through priview-serve, play
// the ladder and check a sample of the answers.
func runServe(ctx context.Context, cfg config, r *report, p profile) error {
	f := newFixture(cfg.seed, cfg.records)
	plan := f.planDesign()
	r.meta["design"] = f.plan.Design.Name()
	eval := f.evalSet()
	// The served release. It is built again after the warm-up and after
	// each cycle of the ladder, so that publish_s, the median of the
	// builds, samples the whole run; every rebuild must give the same
	// bytes.
	seed := f.rng.Derive("release").Int63()
	rel, err := f.publish(seed)
	if err != nil {
		return err
	}
	r.gate("audit", rel.audit.OK(), "served release: %d findings, err=%v", len(rel.audit.Findings), rel.audit.Err())
	l2n, err := eval.l2n(ctx, rel.syn)
	if err != nil {
		return err
	}
	r.set("answer_l2n", l2n, len(eval.queries))

	dir, err := os.MkdirTemp(cfg.work, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := snapshot.NewStore(filepath.Join(dir, "root", releaseName), 0)
	if err != nil {
		return err
	}
	snapPath, err := store.Save(rel.syn)
	if err != nil {
		return fmt.Errorf("saving release: %w", err)
	}
	tr := p.traffic(f)
	conns := runtime.NumCPU()

	// Set-up: start the server, wait for readiness and load the
	// release (warming the hot set on serve-hot), serveSetups times; the last
	// server stays up for the ladder.
	var srv *server
	var warm []answer
	setups := make([]time.Duration, serveSetups)
	readies := make([]time.Duration, serveSetups)
	for i := range setups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		srv, readies[i], err = startServer(ctx, cfg.serveBin, filepath.Join(dir, "root"), filepath.Join(dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return err
		}
		warm, err = srv.load(ctx, conns, tr.warmSet())
		if err != nil {
			//lint:ignore errdiscard the load error is the one to report
			srv.stop()
			return err
		}
		setups[i] = time.Since(start)
	}
	defer srv.stop()
	r.set("setup_s", seconds(median(setups)), len(setups))

	walls := []time.Duration{rel.wall}
	rebuild := func() error {
		b, err := f.publish(seed)
		if err != nil {
			return err
		}
		walls = append(walls, b.wall)
		same := bytes.Equal(rel.snapshot, b.snapshot)
		r.gate("rebuild_identical", same, "build %d from noise seed %d in %v gives %d snapshot bytes, the first %d, identical=%v",
			len(walls), seed, b.wall, len(b.snapshot), len(rel.snapshot), same)
		return nil
	}

	g := newLoadgen(srv.addr, conns)
	defer g.close()
	lad := ladder{p: p, g: g, tr: tr, rng: f.rng.Derive("load"), cfg: cfg}
	var phaseStart metricsSnapshot
	if phaseStart, err = srv.scrape(ctx); err != nil {
		return err
	}
	rungs, err := lad.climb(ctx, srv, rebuild)
	if err != nil {
		return err
	}
	phaseEnd, err := srv.scrape(ctx)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return fmt.Errorf("reading server peak RSS: %w", err)
	}
	if err := srv.stop(); err != nil {
		return err
	}
	r.set("publish_s", seconds(median(walls)), len(walls))

	var nominal, saturation []*rung
	var rates []float64
	for _, rg := range rungs {
		switch rg.label {
		case "nominal":
			nominal = append(nominal, rg)
		case "saturation":
			saturation = append(saturation, rg)
			rates = append(rates, rg.res.windowRates()...)
		}
		if rg.invalid {
			r.gate("loadgen_lag", true, "%s attempt discarded: dispatch lag p99 %v exceeds %v", rg.label, percentile(rg.stats.lag, 0.99), lagLimit)
		}
	}
	r.gate("loadgen_lag", true, "nominal rungs' dispatch lag p99 %v within %v", percentile(merged(nominal).lag, 0.99), lagLimit)
	sat := merged(saturation)
	setLatencies(r, sat.single, sat.batch)
	r.set("max_rps", medianFloat(rates), sat.completed)
	r.set("rss_mb", rss, 1)
	for _, rg := range rungs {
		r.attempted += rg.stats.attempted
		r.failed += rg.stats.fail
	}

	// Correctness: decode the served release and compare every warmed
	// hot key and every sampled answer bit for bit with the same
	// commit's in-process answer.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		return err
	}
	served, err := snapshot.Decode(raw)
	if err != nil {
		return fmt.Errorf("decoding the served release: %w", err)
	}
	answers := append([]answer(nil), warm...)
	r.attempted += len(warm)
	for _, rg := range rungs {
		answers = append(answers, kept(rg.res)...)
	}
	checked, wrong := checkAnswers(ctx, served, answers)
	r.failed += wrong
	r.gate("answers_bit_identical", wrong == 0, "%d of %d sampled answers (%d warmed hot keys) differ from the in-process answer",
		wrong, checked, len(warm))
	client2xx := 0
	for _, rg := range rungs {
		client2xx += rg.stats.completed
	}
	server2xx := phaseEnd.marginalRequests() - phaseStart.marginalRequests()
	r.gate("server_counts", int(server2xx) == client2xx, "server counted %.0f 2xx marginal requests, client completed %d", server2xx, client2xx)

	for _, rg := range rungs {
		r.row(map[string]any{"row": "rung", "label": rg.label, "rate": rg.res.rate, "closed": rg.res.closed,
			"lag_p99_ms": ms(percentile(rg.stats.lag, 0.99)),
			"p50_ms":     ms(percentile(rg.stats.single, 0.5)), "batch_p50_ms": ms(percentile(rg.stats.batch, 0.5)),
			"p99_ms": ms(percentile(rg.stats.single, 0.99)), "batch_p99_ms": ms(percentile(rg.stats.batch, 0.99)),
			"completed": rg.stats.completed, "failed": rg.stats.fail, "backlog": rg.res.backlog, "abandoned": rg.res.abandoned})
	}
	if !cfg.trace {
		return nil
	}
	r.set("core.plan_ms", ms(plan), 1)
	r.set("registry.ready_ms", ms(median(readies)), len(readies))
	serveLayers(r, saturation, nominal, rungs)
	spans, err := writeSpans(cfg, rungs)
	if err != nil {
		return err
	}
	r.note("serve: request spans of the traced ladder written to %s", spans)
	if err := publishLayers(f, r, f.rng.Derive("layers").Int63()); err != nil {
		return err
	}
	singles, batches := sampleQueries(tr, f.rng.Derive("layer-queries"))
	hits := singles
	if ws := tr.warmSet(); ws != nil {
		hits = nil
		s := f.rng.Derive("layer-hits")
		for i := 0; i < 4*len(ws); i++ {
			hits = append(hits, tr.single(s))
		}
	}
	return answerLayers(ctx, r, rel.syn, singles, batches, hits)
}

// sampleQueries draws the traffic's singles and batches for the
// in-process layer calls.
func sampleQueries(tr traffic, s *noise.Stream) ([][]int, [][][]int) {
	var singles [][]int
	var batches [][][]int
	for i := 0; i < layerSingles; i++ {
		singles = append(singles, tr.single(s))
	}
	for i := 0; i < layerBatches; i++ {
		batches = append(batches, tr.batch(s))
	}
	return singles, batches
}

// ladder plays the phases of one profile against one server.
type ladder struct {
	p   profile
	g   *loadgen
	tr  traffic
	rng *noise.Stream
	cfg config
	n   int // rungs played, for stream derivation
}

// rung is one played phase. An invalid rung is a nominal attempt
// discarded because the generator fell behind.
type rung struct {
	label         string
	res           *rungResult
	stats         rungStats
	invalid       bool
	before, after metricsSnapshot
}

// merged pools the client-side statistics of several rungs.
func merged(rungs []*rung) rungStats {
	var st rungStats
	for _, rg := range rungs {
		s := &rg.stats
		st.single = append(st.single, s.single...)
		st.batch = append(st.batch, s.batch...)
		st.service = append(st.service, s.service...)
		st.lag = append(st.lag, s.lag...)
		st.singleBytes = append(st.singleBytes, s.singleBytes...)
		st.attempted += s.attempted
		st.fail += s.fail
		st.completed += s.completed
	}
	return st
}

// phase is one step of the ladder: open loop at rate, or closed loop
// (rate 0) for saturation, for share of the run's seconds.
type phase struct {
	label       string
	rate, share float64
}

// cycles is how often the ladder alternates a nominal rung with a
// saturation rung. The speed of a shared machine drifts within seconds;
// interleaved rungs make every rung kind and the builds between cycles
// sample the whole run alike.
const cycles = 4

// phases are the ladder: a warm-up at half the nominal rate, then
// cycles of an open-loop nominal rung and a closed-loop saturation
// rung. The end-to-end latency metrics and max_rps come from the
// saturation rungs: on a shared virtual machine the latency of a mostly
// idle server is set by how fast the host wakes its idle CPUs, which
// moved the nominal p50 by a factor of two between runs while the
// saturated p50 moved by a fifth. The nominal rungs give the traced
// per-layer figures, the dispatch-lag check and the open-loop rows.
func (l *ladder) phases() []phase {
	ph := []phase{{"warm-up", l.p.nominal / 2, 0.1}}
	for i := 0; i < cycles; i++ {
		ph = append(ph, phase{"nominal", l.p.nominal, 0.3 / cycles}, phase{"saturation", 0, 0.6 / cycles})
	}
	return ph
}

// requests builds n requests, due at the offsets of due or, when due is
// nil, when the generator sends them. traced picks the requests whose
// first response byte is timed.
func (l *ladder) requests(n int, due []time.Duration, traced func(due time.Duration) bool) []request {
	keys := l.rng.DeriveIndexed("keys", l.n)
	l.n++
	reqs := make([]request, n)
	nSingle, nBatch := 0, 0
	for i := range reqs {
		q := request{}
		if due != nil {
			q.due = due[i]
		}
		q.traced = traced(q.due)
		if (i+1)%l.p.batchEvery == 0 {
			q.batch = true
			q.sets = l.tr.batch(keys)
			q.raw = encodeRequest(l.g.addr, http.MethodPost, "/v1/"+releaseName+"/marginals", batchBody(q.sets))
			q.keep = nBatch%l.p.keepBatch == 0
			nBatch++
		} else {
			q.sets = [][]int{l.tr.single(keys)}
			q.raw = encodeRequest(l.g.addr, http.MethodGet, "/v1/"+releaseName+"/marginal?attrs="+attrList(q.sets[0]), nil)
			q.keep = nSingle%l.p.keepSingle == 0
			nSingle++
		}
		reqs[i] = q
	}
	return reqs
}

// traceSlice is how long the nominal rung of a traced run traces before
// it switches tracing off, and the other way round.
const traceSlice = 500 * time.Millisecond

// nominalAttempts is how many nominal rungs discarded because the
// generator fell behind its schedule make a run invalid.
const nominalAttempts = 3

// climb plays the phases in order and calls between after the warm-up
// and after each cycle. A nominal rung whose dispatch lag p99 exceeds
// lagLimit is kept as invalid and played again.
func (l *ladder) climb(ctx context.Context, srv *server, between func() error) ([]*rung, error) {
	var rungs []*rung
	attempts := 0
	for _, ph := range l.phases() {
		for {
			rg, err := l.play(ctx, srv, ph)
			if err != nil {
				return nil, err
			}
			rungs = append(rungs, rg)
			if ph.label != "nominal" || percentile(rg.stats.lag, 0.99) <= lagLimit {
				break
			}
			rg.label, rg.invalid = "nominal-invalid", true
			if attempts++; attempts == nominalAttempts {
				return nil, fmt.Errorf("%w: the load generator ran more than %v late at p99 on %d nominal attempts", errInvalid, lagLimit, attempts)
			}
		}
		if ph.label == "nominal" {
			continue // mid-cycle
		}
		if err := between(); err != nil {
			return nil, err
		}
	}
	return rungs, nil
}

// play plays one phase. In a traced run the server is scraped before
// and after, and every request is traced, except on the nominal rungs,
// which trace every other half second only, so that its untraced
// halves measure what tracing costs.
func (l *ladder) play(ctx context.Context, srv *server, ph phase) (*rung, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := time.Duration(l.cfg.seconds * ph.share * float64(time.Second))
	rg := &rung{label: ph.label}
	var err error
	if l.cfg.trace {
		if rg.before, err = srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	traced := func(time.Duration) bool { return l.cfg.trace }
	if ph.label == "nominal" {
		traced = func(due time.Duration) bool { return l.cfg.trace && int(due/traceSlice)%2 == 0 }
	}
	if ph.rate > 0 {
		due := poisson(l.rng.DeriveIndexed("arrivals", l.n), ph.rate, d)
		rg.res = l.g.run(ctx, l.requests(len(due), due, traced), d)
	} else {
		rg.res = l.g.saturate(ctx, l.requests(int(math.Ceil(l.p.ceiling*d.Seconds())), nil, traced), d)
	}
	if l.cfg.trace {
		if rg.after, err = srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	rg.stats = rg.res.stats()
	if rg.res.closed {
		rg.res.rate = float64(rg.stats.completed) / d.Seconds()
	}
	return rg, nil
}

// batchBody encodes a POST /v1/{release}/marginals body.
func batchBody(sets [][]int) []byte {
	type query struct {
		Attrs []int `json:"attrs"`
	}
	body := struct {
		Queries []query `json:"queries"`
	}{}
	for _, s := range sets {
		body.Queries = append(body.Queries, query{Attrs: s})
	}
	//lint:ignore errdiscard slices of ints always marshal
	b, _ := json.Marshal(body)
	return b
}

func attrList(q []int) string {
	parts := make([]string, len(q))
	for i, a := range q {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}

// server is one priview-serve process in registry mode.
type server struct {
	cmd    *exec.Cmd
	addr   string
	base   string
	client *http.Client
	exited chan struct{}
	log    *os.File
}

// startServer execs priview-serve over root with default flags apart
// from the address, and waits until /readyz answers 200. It returns the
// server and the time from exec to ready.
func startServer(ctx context.Context, bin, root, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		cmd:    exec.Command(bin, "-registry-root", root, "-addr", addr),
		addr:   addr,
		base:   "http://" + addr,
		client: &http.Client{Timeout: 30 * time.Second},
		exited: make(chan struct{}),
		log:    logf,
	}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		//lint:ignore errdiscard the log file is empty; the start error is the one to report
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a server we stop ourselves carries nothing
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			//lint:ignore errdiscard the probe reads only the status
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("priview-serve exited before it was ready; see %s", logPath)
		case <-ctx.Done():
			//lint:ignore errdiscard the cancellation is the error to report
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			//lint:ignore errdiscard the timeout is the error to report
			s.stop()
			return nil, 0, errors.New("priview-serve was not ready within 60s")
		}
	}
}

// stop terminates the server and waits until it has exited. It is safe
// to call more than once.
func (s *server) stop() error {
	select {
	case <-s.exited:
	default:
		//lint:ignore errdiscard a process that already exited cannot be signalled, and exited closes either way
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			//lint:ignore errdiscard the kill is the last resort; exited closes once the process is gone
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.client.CloseIdleConnections()
	return s.log.Close()
}

// load makes the server load the release: on a workload with a warm
// set it GETs every warm query over conns connections and returns the
// answers; otherwise it GETs the release's info.
func (s *server) load(ctx context.Context, conns int, warm [][]int) ([]answer, error) {
	if len(warm) == 0 {
		return nil, s.get(ctx, "/v1/"+releaseName+"/info", nil)
	}
	answers := make([]answer, len(warm))
	errs := make(chan error, conns) // one result per worker
	for w := 0; w < conns; w++ {
		go func(w int) {
			for i := w; i < len(warm); i += conns {
				answers[i] = answer{sets: [][]int{warm[i]}}
				if err := s.get(ctx, "/v1/"+releaseName+"/marginal?attrs="+attrList(warm[i]), &answers[i].body); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return answers, first
}

// get fetches path and fails on any status but 200. With body non-nil
// the response body is stored there.
func (s *server) get(ctx context.Context, path string, body *[]byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if body != nil {
		*body = b
	}
	return nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// answer is one served response kept for the correctness gate.
type answer struct {
	sets  [][]int
	batch bool
	body  []byte
}

// kept returns the rung's sampled successful responses.
func kept(res *rungResult) []answer {
	var out []answer
	for i, q := range res.reqs {
		if q.keep && res.out[i].ok() {
			out = append(out, answer{sets: q.sets, batch: q.batch, body: res.out[i].body})
		}
	}
	return out
}

// servedTable is the JSON form of one served marginal.
type servedTable struct {
	Attrs []int     `json:"attrs"`
	Total float64   `json:"total"`
	Cells []float64 `json:"cells"`
}

// checkAnswers compares every answer with the synopsis's own answer to
// the same query, bit for bit. It returns how many responses it checked
// and how many differed or could not be read.
func checkAnswers(ctx context.Context, syn *core.Synopsis, answers []answer) (checked, wrong int) {
	// Hot keys repeat, so each distinct query is solved once.
	want := map[string]*marginal.Table{}
	for _, a := range answers {
		var got []servedTable
		var err error
		if a.batch {
			var resp struct {
				Results []servedTable `json:"results"`
			}
			err = json.Unmarshal(a.body, &resp)
			got = resp.Results
		} else {
			var t servedTable
			err = json.Unmarshal(a.body, &t)
			got = []servedTable{t}
		}
		checked++
		if err != nil || len(got) != len(a.sets) {
			wrong++
			continue
		}
		for i, q := range a.sets {
			k := attrList(q)
			if _, ok := want[k]; !ok {
				// A degraded answer is still the answer the server
				// must match; a nil one never matches.
				//lint:ignore errdiscard see above
				want[k], _ = syn.QueryMethodContext(ctx, q, core.CME)
			}
			if !sameAnswer(want[k], got[i]) {
				wrong++
				break
			}
		}
	}
	return checked, wrong
}

// sameAnswer reports whether a served table equals want bit for bit. A
// nil want is a query the synopsis could not answer.
func sameAnswer(want *marginal.Table, got servedTable) bool {
	if want == nil || len(want.Cells) != len(got.Cells) || len(want.Attrs) != len(got.Attrs) {
		return false
	}
	if math.Float64bits(want.Total()) != math.Float64bits(got.Total) {
		return false
	}
	for i, a := range want.Attrs {
		if got.Attrs[i] != a {
			return false
		}
	}
	for i, c := range want.Cells {
		if math.Float64bits(c) != math.Float64bits(got.Cells[i]) {
			return false
		}
	}
	return true
}
