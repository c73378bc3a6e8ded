// Command perfbench is the repository's benchmark. It measures PriView
// from the outside on three workloads:
//
//   - publish: build, audit and encode releases in-process (the paper's
//     P column) and answer marginals from each (its Q columns);
//   - serve-hot: a Zipf stream of cached marginals served by the real
//     priview-serve binary over loopback HTTP;
//   - serve-cold: uncovered 6-way marginals mixed with batches of
//     4-way marginals, so nearly every request solves.
//
// One run prints one JSON row per metric (name, value, unit and the run
// metadata), the correctness and privacy gates, and as its last line a
// JSON summary. With -trace 1 it prints the per-layer metrics and the
// reconciliation report instead of the end-to-end metrics. Build and
// run it from the repository root with
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 40 --trace 0
//
// README.md next to this file lists every metric, what it measures and
// which end-to-end figure each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	work     string
	records  int
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs one workload and prints its rows and summary to
// stdout. It returns the process exit code: 0 when a result was
// printed, 1 when the run failed or was invalid, 2 for a bad command
// line.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: publish, serve-hot or serve-cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "measured duration of the run in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.StringVar(&cfg.serveBin, "serve-bin", "", "priview-serve binary built from the checkout under test")
	fs.StringVar(&cfg.work, "work", "", "directory for the run's temporary files")
	fs.IntVar(&cfg.records, "records", 1000000, "records in the synthetic Kosarak-shaped dataset")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		complain(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 || cfg.records <= 0 {
		complain(stderr, "perfbench: -seconds and -records must be positive")
		return 2
	}
	if cfg.work == "" {
		cfg.work = os.TempDir()
	}
	var body func(context.Context, config, *report) error
	switch cfg.workload {
	case "publish":
		body = runPublish
	case "serve-hot":
		body = func(ctx context.Context, cfg config, r *report) error { return runServe(ctx, cfg, r, hotProfile) }
	case "serve-cold":
		body = func(ctx context.Context, cfg config, r *report) error { return runServe(ctx, cfg, r, coldProfile) }
	default:
		complain(stderr, "perfbench: unknown -workload %q (want publish, serve-hot or serve-cold)", cfg.workload)
		return 2
	}
	if cfg.workload != "publish" && cfg.serveBin == "" {
		complain(stderr, "perfbench: serve workloads need -serve-bin")
		return 2
	}
	r := newReport(cfg, stdout)
	if err := body(ctx, cfg, r); err != nil {
		complain(stderr, "perfbench: %s: %v", cfg.workload, err)
		return 1
	}
	if err := r.finish(); err != nil {
		complain(stderr, "perfbench: %s: %v", cfg.workload, err)
		return 1
	}
	return 0
}

// complain prints one diagnostic line to stderr.
func complain(w io.Writer, format string, args ...any) {
	//lint:ignore errdiscard a diagnostic that cannot be written has nowhere else to go
	fmt.Fprintf(w, format+"\n", args...)
}

// errInvalid marks a run whose measurements cannot be used, such as a
// load generator that fell behind its own schedule.
var errInvalid = errors.New("invalid run")

// report collects one run's metrics, gates and reconciliation lines and
// prints them.
type report struct {
	cfg     config
	out     io.Writer
	meta    map[string]any
	values  map[string]measure
	gatesOK bool
	// attempted and failed count operations: releases on publish,
	// requests on the serve workloads. failed includes wrong answers
	// and failed gates.
	attempted, failed int
	lines             []string
	// writeErr is the first error writing to out; finish reports it.
	writeErr error
}

// measure is one metric's value and how many samples it summarizes.
// offPath marks a layer this workload never calls; its value is 0.
type measure struct {
	value   float64
	samples int
	offPath bool
}

func newReport(cfg config, out io.Writer) *report {
	return &report{cfg: cfg, out: out, meta: runMeta(cfg), values: map[string]measure{}, gatesOK: true}
}

// set records a metric value with the number of samples behind it.
func (r *report) set(name string, value float64, samples int) {
	r.values[name] = measure{value: value, samples: samples}
}

// offPath records that this workload does not exercise the layer.
func (r *report) offPath(names ...string) {
	for _, n := range names {
		r.values[n] = measure{offPath: true}
	}
}

// gate prints one correctness or privacy check. A failed gate makes the
// run incorrect; the caller counts the operations it failed.
func (r *report) gate(name string, ok bool, format string, args ...any) {
	if !ok {
		r.gatesOK = false
	}
	r.row(map[string]any{"row": "gate", "gate": name, "ok": ok, "detail": fmt.Sprintf(format, args...)})
}

// note adds a line to the reconciliation report.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) row(fields map[string]any) {
	fields["workload"] = r.cfg.workload
	fields["seed"] = r.cfg.seed
	fields["trace"] = r.cfg.trace
	fields["meta"] = r.meta
	b, err := json.Marshal(fields)
	if err != nil {
		fields = map[string]any{"row": "error", "error": err.Error()}
		//lint:ignore errdiscard a map of strings always marshals
		b, _ = json.Marshal(fields)
	}
	r.printf("%s\n", b)
}

func (r *report) printf(format string, args ...any) {
	if _, err := fmt.Fprintf(r.out, format, args...); err != nil && r.writeErr == nil {
		r.writeErr = err
	}
}

// finish prints the metric rows, the reconciliation report and the
// summary line. Every catalog metric of the run's kind must have been
// set; a missing one is a benchmark bug.
func (r *report) finish() error {
	metrics := map[string]any{}
	for _, d := range catalog {
		if d.layer != r.cfg.trace {
			continue
		}
		m, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		r.row(map[string]any{
			"row": "metric", "name": d.name, "value": m.value, "unit": d.unit, "better": d.better,
			"samples": m.samples, "on_path": !m.offPath, "moves": d.moves,
		})
		metrics[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	if r.cfg.trace {
		for _, l := range r.lines {
			r.printf("# %s\n", l)
		}
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	r.row(map[string]any{"row": "fail_ratio", "value": ratio, "unit": "1", "attempted": r.attempted, "failed": r.failed})
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	summary := map[string]any{
		"correct": r.gatesOK && r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	r.printf("%s\n", b)
	return r.writeErr
}

// metricDef describes one metric. moves names the end-to-end metric a
// layer metric should move and the workload it moves it on.
type metricDef struct {
	name, unit, better string
	layer              bool
	moves              string
}

// catalog lists every metric the benchmark prints; BENCHMARK.json
// declares the same names and units.
var catalog = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "publish_s", unit: "s", better: "lower"},
	{name: "answer_l2n", unit: "1", better: "lower"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "batch_p50_ms", unit: "ms", better: "lower"},
	{name: "max_rps", unit: "req/s", better: "higher"},
	{name: "rss_mb", unit: "MB", better: "lower"},

	{name: "dataset.count_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "dataset.record_views", unit: "count", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "noise.laplace_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "consistency.overall_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "consistency.ripple_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "core.build_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "audit.check_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "snapshot.encode_ms", unit: "ms", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "snapshot.bytes", unit: "B", better: "lower", layer: true, moves: "publish_s on publish"},
	{name: "core.plan_ms", unit: "ms", better: "lower", layer: true, moves: "setup_s on publish"},
	{name: "snapshot.decode_ms", unit: "ms", better: "lower", layer: true, moves: "setup_s on serve-*"},
	{name: "registry.ready_ms", unit: "ms", better: "lower", layer: true, moves: "setup_s on serve-*"},
	{name: "reconstruct.prepare_us.p50", unit: "us", better: "lower", layer: true, moves: "p50_ms on serve-cold"},
	{name: "reconstruct.prepare_us.p99", unit: "us", better: "lower", layer: true, moves: "loadgen.p99_ms on serve-cold"},
	{name: "reconstruct.cme_us.p50", unit: "us", better: "lower", layer: true, moves: "p50_ms on serve-cold and publish; answer_l2n on publish"},
	{name: "reconstruct.cme_us.p99", unit: "us", better: "lower", layer: true, moves: "loadgen.p99_ms on serve-cold and publish"},
	{name: "core.query_us", unit: "us", better: "lower", layer: true, moves: "p50_ms on serve-cold and publish"},
	{name: "core.batch_us", unit: "us", better: "lower", layer: true, moves: "batch_p50_ms, loadgen.batch_p99_ms on serve-cold and publish"},
	{name: "qcache.hit_ns", unit: "ns", better: "lower", layer: true, moves: "p50_ms, max_rps on serve-hot"},
	{name: "qcache.hit_ratio", unit: "1", better: "higher", layer: true, moves: "p50_ms, rss_mb on serve-hot and serve-cold"},
	{name: "qcache.evictions", unit: "count", better: "lower", layer: true, moves: "p50_ms, rss_mb on serve-cold"},
	{name: "qcache.coalesced", unit: "count", better: "higher", layer: true, moves: "p50_ms on serve-cold"},
	{name: "stage.cache_hit_us", unit: "us", better: "lower", layer: true, moves: "p50_ms, loadgen.p99_ms on serve-hot"},
	{name: "stage.cache_fill_us", unit: "us", better: "lower", layer: true, moves: "p50_ms, loadgen.p99_ms on serve-cold"},
	{name: "stage.core_prepare_us", unit: "us", better: "lower", layer: true, moves: "p50_ms, loadgen.p99_ms on serve-cold"},
	{name: "stage.reconstruct_cme_us", unit: "us", better: "lower", layer: true, moves: "p50_ms, loadgen.p99_ms on serve-cold"},
	{name: "server.request_us.single", unit: "us", better: "lower", layer: true, moves: "p50_ms on serve-hot and serve-cold"},
	{name: "server.request_us.batch", unit: "us", better: "lower", layer: true, moves: "batch_p50_ms on serve-hot and serve-cold"},
	{name: "server.resp_bytes", unit: "B", better: "lower", layer: true, moves: "p50_ms on serve-hot"},
	{name: "server.unattributed_us", unit: "us", better: "lower", layer: true, moves: "p50_ms, max_rps on serve-hot"},
	{name: "loadgen.transport_us", unit: "us", better: "lower", layer: true, moves: "p50_ms on serve-hot"},
	{name: "admission.queued", unit: "count", better: "lower", layer: true, moves: "max_rps, loadgen.p99_ms on serve-cold saturation rungs"},
	{name: "admission.shed", unit: "count", better: "lower", layer: true, moves: "fail_ratio on serve-cold saturation rungs"},
	{name: "admission.sojourn_p99_ms", unit: "ms", better: "lower", layer: true, moves: "max_rps, loadgen.p99_ms on serve-cold saturation rungs"},
	{name: "loadgen.p99_ms", unit: "ms", better: "lower", layer: true, moves: "tail of p50_ms on every workload; not bounded"},
	{name: "loadgen.batch_p99_ms", unit: "ms", better: "lower", layer: true, moves: "tail of batch_p50_ms on every workload; not bounded"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower", layer: true, moves: "run validity on serve-*"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: true, moves: "run validity on serve-*"},
}

// seconds converts a duration to float seconds; ms and us likewise.
func seconds(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64      { return float64(d) / float64(time.Microsecond) }
