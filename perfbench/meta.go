package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runMeta is the metadata printed on every row: the machine, the
// toolchain, the source under test and the workload inputs. GOMAXPROCS
// is whatever the machine defaults to; the benchmark never pins it,
// because a release's noise draws depend on the core count.
func runMeta(cfg config) map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
		"seed":          cfg.seed,
		"records":       cfg.records,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns HEAD when the working directory is a git checkout
// and "none" otherwise; sourceDigest identifies the source either way.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source file and go.mod under root, in
// path order, skipping hidden directories such as .bench_build and
// .git.
func sourceDigest(root string) string {
	var paths []string
	//lint:ignore errdiscard a walk error leaves a partial digest, which still differs from a complete one
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		//lint:ignore errdiscard writes to a hash never fail
		io.WriteString(h, p+"\x00")
		//lint:ignore errdiscard a read error changes the digest, which is all it can do
		_, _ = io.Copy(h, f)
		//lint:ignore errdiscard the file was only read
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process from
// /proc ("self" for this one) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, sc.Err()
}
