package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

// blockDigest fingerprints a design's blocks in order.
func blockDigest(p Plan) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(p.Design.Blocks))))[:16]
}

// TestPlanDesignPinned pins the Kosarak-scale plan block for block: a
// planner change that reorders or alters the C3(8,173) views changes
// every release built from it.
func TestPlanDesignPinned(t *testing.T) {
	p := PlanDesign(32, 1000000, 1, 1)
	if got, want := p.Design.Name(), "C3(8,173)"; got != want {
		t.Fatalf("PlanDesign(32, 1e6, 1, 1) = %s, want %s", got, want)
	}
	if got, want := blockDigest(p), "8b5fa684e875a05d"; got != want {
		t.Errorf("C3(8,173) block digest %s, want %s", got, want)
	}
}

// TestPlanDesignConcurrent plans from several goroutines at once; under
// -race it pins that planning shares no unsynchronised state, and each
// concurrent plan must equal the serial one.
func TestPlanDesignConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: plans several d=20..26 designs")
	}
	const workers = 4
	plans := make([]Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = PlanDesign(20+2*i, 200000, 1, int64(i))
		}(i)
	}
	wg.Wait()
	for i, p := range plans {
		if got, want := blockDigest(p), blockDigest(PlanDesign(20+2*i, 200000, 1, int64(i))); got != want {
			t.Errorf("worker %d: concurrent plan %s digest %s, serial %s", i, p.Design.Name(), got, want)
		}
	}
}
