package covering

import (
	"math/big"
	"reflect"
	"sync"
	"testing"
)

// TestBinomMatchesBigBinomial checks the Pascal table and the
// multiplicative formula beyond it against math/big, across the table
// edge at n = 64.
func TestBinomMatchesBigBinomial(t *testing.T) {
	for n := 0; n <= 80; n++ {
		for k := -1; k <= n+1; k++ {
			want := int64(0)
			if k >= 0 && k <= n {
				b := new(big.Int).Binomial(int64(n), int64(k))
				if !b.IsInt64() || b.Int64() > (1<<62)/int64(n+1) {
					continue // beyond the formula's exact range
				}
				want = b.Int64()
			}
			if got := Binom(n, k); int64(got) != want {
				t.Fatalf("Binom(%d,%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

// TestConcurrentPlanners runs the design constructions from several
// goroutines at once, each with parameters no other test plans, so
// every binomial the planner ranks subsets with is first needed under
// concurrency. Under -race this pins that binom shares no mutable
// state; a lazily filled memo is reported as a data race.
func TestConcurrentPlanners(t *testing.T) {
	const workers = 6
	var wg sync.WaitGroup
	designs := make([]*Design, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			designs[i] = Best(37+2*i, 5, 3, int64(i), 1)
			_ = Binom(65+i, 3+i)
		}(i)
	}
	wg.Wait()
	for i, dg := range designs {
		if err := dg.Verify(); err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
		if want := Best(37+2*i, 5, 3, int64(i), 1); !reflect.DeepEqual(dg.Blocks, want.Blocks) {
			t.Errorf("worker %d: concurrent plan %s differs from a serial one %s", i, dg.Name(), want.Name())
		}
	}
}
