package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
	"priview/internal/server"
	"priview/internal/snapshot"
)

func durabilitySyn(seed int64) *core.Synopsis {
	data := synth.MSNBC(1000, seed)
	dg := covering.Groups(9, 4)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(seed))
}

// TestWriterShortWriteSurfaces proves a short write can never look like
// success: snapshot.Write into a failing writer reports the injected
// error.
func TestWriterShortWriteSurfaces(t *testing.T) {
	var sink bytes.Buffer
	w := &Writer{W: &sink, FailAfter: 64}
	err := snapshot.Write(w, durabilitySyn(1))
	if !errors.Is(err, ErrInjectedFS) {
		t.Fatalf("err = %v, want ErrInjectedFS", err)
	}
	if sink.Len() > 64 {
		t.Fatalf("writer accepted %d bytes past the fault point", sink.Len())
	}
}

// TestTornSnapshotQuarantinedWithFallback is the headline durability
// proof: a snapshot torn by a lying disk (write + sync + rename all
// reported success) is detected by the checksum at load time,
// quarantined to *.corrupt, and the store falls back to the older
// verifiable snapshot.
func TestTornSnapshotQuarantinedWithFallback(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	st, err := snapshot.NewStoreFS(ffs, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := durabilitySyn(2)
	if _, err := st.Save(good); err != nil {
		t.Fatal(err)
	}

	ffs.TornWriteAt = 100 // every byte past 100 is silently lost
	torn, err := st.Save(durabilitySyn(3))
	if err != nil {
		t.Fatalf("torn save was supposed to look successful, got %v", err)
	}
	ffs.TornWriteAt = 0
	if fi, err := os.Stat(torn); err != nil || fi.Size() != 100 {
		t.Fatalf("torn file: %v size=%v, want 100 bytes on disk", err, fi.Size())
	}

	res, err := st.Load()
	if err != nil {
		t.Fatalf("Load failed despite a good older snapshot: %v", err)
	}
	if filepath.Base(res.Path) != "snapshot-000001.json" {
		t.Fatalf("loaded %s, want fallback to the first snapshot", res.Path)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want the torn file", res.Quarantined)
	}
	if _, err := os.Stat(torn + ".corrupt"); err != nil {
		t.Fatalf("torn file not quarantined: %v", err)
	}
	if !marginal.Equal(good.Query([]int{0, 1}), res.Synopsis.Query([]int{0, 1}), 1e-9) {
		t.Fatal("fallback synopsis does not match what was saved")
	}
}

// TestBitFlippedSnapshotDetected flips a single bit mid-payload in an
// otherwise perfect write; the checksum refuses it.
func TestBitFlippedSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	st, err := snapshot.NewStoreFS(ffs, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(durabilitySyn(4)); err != nil {
		t.Fatal(err)
	}
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}

	ffs.FlipBit = true
	ffs.FlipBitOffset = len(raw) / 2 // deep inside the payload cells
	if _, err := st.Save(durabilitySyn(5)); err != nil {
		t.Fatalf("bit-rotted save was supposed to look successful, got %v", err)
	}
	ffs.FlipBit = false

	res, err := st.Load()
	if err != nil {
		t.Fatalf("Load failed despite a good older snapshot: %v", err)
	}
	if filepath.Base(res.Path) != names[0] {
		t.Fatalf("loaded %s, want fallback to %s", res.Path, names[0])
	}
	if len(res.Quarantined) != 1 || len(res.Errs) != 1 {
		t.Fatalf("quarantined = %v errs = %v", res.Quarantined, res.Errs)
	}
	if !errors.Is(res.Errs[0], snapshot.ErrChecksum) && !errors.Is(res.Errs[0], snapshot.ErrFormat) {
		t.Fatalf("rejection reason = %v, want checksum or format error", res.Errs[0])
	}
}

// TestFailedRenameLeavesOldSnapshotServing proves a crash in the
// publish step is harmless: Save reports the failure, the previous
// snapshot still loads, and no half-published file is visible.
func TestFailedRenameLeavesOldSnapshotServing(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	st, err := snapshot.NewStoreFS(ffs, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := durabilitySyn(6)
	if _, err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	ffs.FailRenames(1)
	if _, err := st.Save(durabilitySyn(7)); !errors.Is(err, ErrInjectedFS) {
		t.Fatalf("Save err = %v, want ErrInjectedFS", err)
	}
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("store lists %v, want only the original snapshot", names)
	}
	res, err := st.Load()
	if err != nil || len(res.Quarantined) != 0 {
		t.Fatalf("old snapshot unusable after failed publish: res=%+v err=%v", res, err)
	}
}

// TestFailedSyncSurfaces proves an fsync failure is reported, not
// swallowed — the one storage error the atomic protocol cannot paper
// over.
func TestFailedSyncSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	ffs.FailSyncs(1)
	err := snapshot.WriteFile(ffs, filepath.Join(dir, "syn.json"), durabilitySyn(8))
	if !errors.Is(err, ErrInjectedFS) {
		t.Fatalf("err = %v, want ErrInjectedFS", err)
	}
}

// TestNaNViewNeverServesNaN is the numerical half of the durability
// contract, proven end to end over HTTP: with a view poisoned by NaN
// mid-flight, every marginal query still answers 200 with fully finite
// cells (marked degraded) — zero failed queries, zero NaN cells.
func TestNaNViewNeverServesNaN(t *testing.T) {
	syn := durabilitySyn(9)
	for i := range syn.Views()[0].Cells {
		syn.Views()[0].Cells[i] = math.NaN()
	}
	srv := httptest.NewServer(serveOne(syn, server.Options{MaxK: 6}))
	defer srv.Close()

	queries := [][]int{{0, 1}, {0, 5}, {1, 6}, {2, 3}, {0, 1, 5}, {4}}
	degraded := 0
	for _, attrs := range queries {
		for _, method := range []string{"CME", "CLN", "CLP"} {
			url := fmt.Sprintf("%s/v1/marginal?attrs=%s&method=%s", srv.URL, joinInts(attrs), method)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatalf("query %v %s: %v", attrs, method, err)
			}
			var body struct {
				Cells    []float64 `json:"cells"`
				Total    float64   `json:"total"`
				Degraded bool      `json:"degraded"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %v %s: status %d — a poisoned view must degrade, not fail", attrs, method, resp.StatusCode)
			}
			if derr != nil {
				t.Fatalf("query %v %s: decoding: %v", attrs, method, derr)
			}
			if len(body.Cells) != 1<<uint(len(attrs)) {
				t.Fatalf("query %v %s: %d cells", attrs, method, len(body.Cells))
			}
			for j, c := range body.Cells {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("query %v %s: cell %d is %v — NaN must never reach a client", attrs, method, j, c)
				}
			}
			if body.Degraded {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query reported degraded=true; the poisoned view was never touched")
	}
}

// TestDegradedQueryCarriesErrNumerical pins the library-level contract
// the server test exercises over HTTP: a poisoned view yields a finite
// fallback table together with an error matching reconstruct.ErrNumerical.
func TestDegradedQueryCarriesErrNumerical(t *testing.T) {
	syn := durabilitySyn(10)
	for i := range syn.Views()[0].Cells {
		syn.Views()[0].Cells[i] = math.Inf(1)
	}
	attrs := syn.Views()[0].Attrs[:2]
	table, err := syn.QueryMethodContext(t.Context(), attrs, core.CME)
	if !errors.Is(err, reconstruct.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	var nerr *reconstruct.NumericalError
	if !errors.As(err, &nerr) {
		t.Fatalf("err %T does not unwrap to *NumericalError", err)
	}
	if table == nil || !reconstruct.FiniteTable(table) {
		t.Fatalf("fallback table = %v, want finite", table)
	}
}

func joinInts(xs []int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(x)
	}
	return out
}
