package harness_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/golden"
	"repro/internal/harness"
)

// TestRandForkIndependentOfWorkerCount: a trial's RNG stream depends only on
// (Seed, Index), never on scheduling.
func TestRandForkIndependentOfWorkerCount(t *testing.T) {
	draw := func(workers int) []uint64 {
		r := &harness.Runner{Workers: workers, Seed: 42}
		out := make([]uint64, 32)
		r.Run(len(out), func(ctx *harness.Ctx) {
			out[ctx.Index] = ctx.Rand.Uint64()
		})
		return out
	}
	seq := draw(1)
	for _, w := range []int{2, 4, 16} {
		par := draw(w)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d trial %d drew %d, sequential drew %d", w, i, par[i], seq[i])
			}
		}
	}
	distinct := map[uint64]bool{}
	for _, v := range seq {
		distinct[v] = true
	}
	if len(distinct) != len(seq) {
		t.Fatal("trial RNG forks collided")
	}
}

// TestEngineTrialsDeterministicAcrossWorkers is the harness's core
// guarantee: running real simulation trials with 1 worker or N workers
// produces byte-identical reports.
func TestEngineTrialsDeterministicAcrossWorkers(t *testing.T) {
	scenarios := golden.Scenarios()[:4] // the four micro paradigms
	fingerprints := func(workers int) []string {
		r := &harness.Runner{Workers: workers}
		return harness.MustMap(r, scenarios, func(_ *harness.Ctx, s golden.Scenario) string {
			return golden.Fingerprint(s.Name, s.Run())
		})
	}
	seq := fingerprints(1)
	par := fingerprints(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d diverged under parallelism:\nseq: %s\npar: %s", i, seq[i], par[i])
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	out, err := harness.Map(&harness.Runner{Workers: 8}, items, func(_ *harness.Ctx, v int) (int, error) {
		return v * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*6 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*6)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := harness.Map(&harness.Runner{Workers: workers}, []int{0, 1, 2, 3, 4, 5, 6, 7},
			func(_ *harness.Ctx, v int) (int, error) {
				if v >= 3 {
					return 0, fmt.Errorf("%w at %d", boom, v)
				}
				return v, nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// With concurrent workers several trials may fail before dispatch
		// stops; the reported one must still be the earliest.
		if !strings.Contains(err.Error(), "at 3") {
			t.Fatalf("workers=%d: expected the lowest-index error, got %v", workers, err)
		}
	}
}

func TestPanicPropagatesWithOriginalValue(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				// The original panic value must survive for recover-based
				// handling: directly when sequential, wrapped in TrialPanic
				// (value preserved) when concurrent.
				switch p := v.(type) {
				case string:
					if workers != 1 || p != "kaboom" {
						t.Fatalf("workers=%d: panic = %q", workers, p)
					}
				case harness.TrialPanic:
					if workers == 1 {
						t.Fatalf("sequential path should unwind the raw value, got %v", p)
					}
					if p.Index != 2 || p.Value != "kaboom" {
						t.Fatalf("workers=%d: wrong panic surfaced: %+v", workers, p)
					}
				default:
					t.Fatalf("workers=%d: unexpected panic type %T: %v", workers, v, v)
				}
			}()
			(&harness.Runner{Workers: workers}).Run(8, func(ctx *harness.Ctx) {
				if ctx.Index == 2 {
					panic("kaboom")
				}
			})
		}()
	}
}

func TestErrorSkipsLaterTrials(t *testing.T) {
	ran := make([]bool, 64)
	_, err := harness.Map(&harness.Runner{Workers: 2}, make([]struct{}, 64),
		func(ctx *harness.Ctx, _ struct{}) (int, error) {
			ran[ctx.Index] = true
			if ctx.Index == 0 {
				return 0, errors.New("early failure")
			}
			// Trials that cost nothing let whichever worker starts first
			// drain all 64 before the other has reported the failure.
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	if err == nil {
		t.Fatal("expected error")
	}
	skipped := 0
	for _, r := range ran {
		if !r {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("an early error should cancel undispatched trials")
	}
}

func TestDefaultWorkers(t *testing.T) {
	if harness.DefaultWorkers() < 1 {
		t.Fatal("default workers must be >= 1")
	}
	harness.SetDefaultWorkers(3)
	if harness.DefaultWorkers() != 3 {
		t.Fatalf("DefaultWorkers = %d after SetDefaultWorkers(3)", harness.DefaultWorkers())
	}
	harness.SetDefaultWorkers(0)
	if harness.DefaultWorkers() < 1 {
		t.Fatal("resetting must restore the GOMAXPROCS default")
	}
}

func TestRunZeroTrials(t *testing.T) {
	(&harness.Runner{}).Run(0, func(*harness.Ctx) { t.Fatal("should not run") })
	out, err := harness.Map(&harness.Runner{}, nil, func(*harness.Ctx, int) (*engine.Report, error) {
		t.Fatal("should not run")
		return nil, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v %v", out, err)
	}
}
