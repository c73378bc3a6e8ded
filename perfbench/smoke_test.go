package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload for a moment on a small dataset, traced
// and untraced, and checks that the run prints every metric
// BENCHMARK.json declares, with its unit, and that the gates ran.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds priview-serve and runs every workload")
	}
	decl := readDeclaration(t)
	checkCatalog(t, decl)
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "priview-serve")
	build := exec.Command("go", "build", "-o", serveBin, "priview/cmd/priview-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building priview-serve: %v\n%s", err, out)
	}
	wantGates := map[string][]string{
		"publish":    {"rebuild_identical", "audit", "noise_variance"},
		"serve-hot":  {"rebuild_identical", "audit", "loadgen_lag", "answers_bit_identical", "server_counts"},
		"serve-cold": {"rebuild_identical", "audit", "loadgen_lag", "answers_bit_identical", "server_counts"},
	}
	// serve-hot is not declared in BENCHMARK.json (see README.md) but
	// stays runnable, so it is smoke-tested too.
	workloads := []string{"serve-hot"}
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--records", "20000", "--serve-bin", serveBin, "--work", t.TempDir()}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\nstderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var summary struct {
					Correct   *bool `json:"correct"`
					Attempted int   `json:"attempted"`
					Failed    int   `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				last := lines[len(lines)-1]
				if err := json.Unmarshal([]byte(last), &summary); err != nil {
					t.Fatalf("last line is not the summary: %v\n%s", err, last)
				}
				if summary.Correct == nil || !*summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
					t.Errorf("summary correct=%v attempted=%d failed=%d", summary.Correct, summary.Attempted, summary.Failed)
				}
				want := decl.EndToEnd
				if trace == "1" {
					want = decl.PerLayer
				}
				if len(summary.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, BENCHMARK.json declares %d", len(summary.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := summary.Metrics[m.Name]
					if !ok || got.Value == nil {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				ran := map[string]bool{}
				for _, l := range lines {
					var row struct {
						Row  string `json:"row"`
						Gate string `json:"gate"`
					}
					if json.Unmarshal([]byte(l), &row) == nil && row.Row == "gate" {
						ran[row.Gate] = true
					}
				}
				for _, g := range wantGates[name] {
					if !ran[g] {
						t.Errorf("gate %s did not run", g)
					}
				}
			})
		}
	}
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkCatalog checks that the metric catalog and BENCHMARK.json list
// the same metrics, units and directions.
func checkCatalog(t *testing.T, d declaration) {
	t.Helper()
	declared := map[string]metricDecl{}
	layer := map[string]bool{}
	for _, m := range d.EndToEnd {
		declared[m.Name] = m
	}
	for _, m := range d.PerLayer {
		declared[m.Name] = m
		layer[m.Name] = true
	}
	if len(declared) != len(catalog) {
		t.Errorf("BENCHMARK.json declares %d metrics, the catalog has %d", len(declared), len(catalog))
	}
	for _, c := range catalog {
		m, ok := declared[c.name]
		if !ok || m.Unit != c.unit || m.Better != c.better || layer[c.name] != c.layer {
			t.Errorf("catalog metric %s (%s, %s, layer=%v) does not match BENCHMARK.json %+v", c.name, c.unit, c.better, c.layer, m)
		}
	}
}
