package engine

import (
	"runtime"
	"testing"

	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// shuffleConfig is the 4-node micro engine at 90 % load with key shuffles,
// the small-scale shape of the benchmark's sim-shuffle workload.
func shuffleConfig(p Paradigm, seed uint64) (Config, *workload.Zipf) {
	cfg := microConfig(p, 0.9*28000, seed)
	zipf := workload.NewZipf(2500, 0.75, simtime.NewRand(seed))
	cfg.Sources[0].Sample = func(simtime.Time) (stream.Key, int, interface{}) {
		return zipf.Sample(), 128, nil
	}
	return cfg, zipf
}

func processedWeight(e *Engine) int64 {
	var w int64
	for _, rt := range e.ops {
		w += rt.processedW
	}
	return w
}

// TestSteadyStateAllocsPerTuple is the tier-1 guard on the emit → route →
// serve path: after warm-up a tuple may cost at most half an allocation
// (what remains is control-plane work per window, not per tuple). The path
// cost 6–8 allocations per tuple while events were closures.
func TestSteadyStateAllocsPerTuple(t *testing.T) {
	for _, p := range []Paradigm{ResourceCentric, Elasticutor} {
		cfg, zipf := shuffleConfig(p, 1)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Every(3750*simtime.Millisecond, zipf.Shuffle) // ω = 16 per minute
		e.Begin()
		e.StepUntil(simtime.Time(3 * simtime.Second))

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w0 := processedWeight(e)
		e.StepUntil(simtime.Time(9 * simtime.Second))
		runtime.ReadMemStats(&m1)
		tuples := processedWeight(e) - w0
		e.Finish(9 * simtime.Second)

		if tuples < 50000 {
			t.Fatalf("%v: only %d tuples processed in the measured span", p, tuples)
		}
		perTuple := float64(m1.Mallocs-m0.Mallocs) / float64(tuples)
		t.Logf("%v: %d tuples, %.3f allocs/tuple", p, tuples, perTuple)
		if perTuple > 0.5 {
			t.Errorf("%v: %.3f allocations per tuple after warm-up, want <= 0.5", p, perTuple)
		}
	}
}

// TestDeliveryRecordsRecycleClean checks the delivery pool's ownership rules
// on a run whose tuples carry payloads and which ends with deliveries still
// on the clock: every parked record is zeroed (a recycled record cannot leak
// the previous tuple's payload or pin its executor), no record is parked
// twice, and the records still pending at Finish are not on the free list —
// they are dropped with the clock.
func TestDeliveryRecordsRecycleClean(t *testing.T) {
	cfg, zipf := shuffleConfig(ResourceCentric, 2)
	payload := new(int)
	cfg.Sources[0].Sample = func(simtime.Time) (stream.Key, int, interface{}) {
		return zipf.Sample(), 128, payload
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Every(2*simtime.Second, zipf.Shuffle)
	r := e.Run(7 * simtime.Second)
	if r.Repartitions == 0 {
		t.Fatal("run never replayed a pause buffer; the pool was not stressed")
	}

	parked := make(map[*delivery]bool)
	for d := e.freeDeliveries; d != nil; d = d.next {
		if parked[d] {
			t.Fatal("a delivery record is on the free list twice")
		}
		parked[d] = true
		if d.ex != nil || d.t != (stream.Tuple{}) {
			t.Fatalf("parked delivery record not zeroed: ex=%v tuple=%+v", d.ex, d.t)
		}
		if d.e != e {
			t.Fatal("parked delivery record lost its engine")
		}
	}
	if len(parked) == 0 || len(parked) > e.deliveries {
		t.Fatalf("free list holds %d records of %d allocated", len(parked), e.deliveries)
	}
	// Cross-node routes at 0.5 ms latency keep deliveries in flight at any
	// instant, so the run must have ended with some unreturned.
	if e.clock.Pending() == 0 || len(parked) == e.deliveries {
		t.Fatalf("expected deliveries still pending at Finish: pending=%d parked=%d allocated=%d",
			e.clock.Pending(), len(parked), e.deliveries)
	}
}

// TestResetShardLoadsKeepsPreviousWindow pins the double-buffer contract the
// rc controller relies on: the slice a reader captured before a reset stays
// intact for one window, and the reset after that recycles it.
func TestResetShardLoadsKeepsPreviousWindow(t *testing.T) {
	e, err := New(microConfig(ResourceCentric, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	rt := e.opOrder[0]
	captured := rt.ShardLoads()
	captured[3], captured[7] = 5, 9

	rt.ResetShardLoads()
	if captured[3] != 5 || captured[7] != 9 {
		t.Fatalf("captured window changed by the reset: %v %v", captured[3], captured[7])
	}
	fresh := rt.ShardLoads()
	if &fresh[0] == &captured[0] || len(fresh) != len(captured) {
		t.Fatal("reset did not switch to the other buffer")
	}
	for s, v := range fresh {
		if v != 0 {
			t.Fatalf("fresh window not zero at shard %d: %v", s, v)
		}
	}

	fresh[1] = 2
	rt.ResetShardLoads()
	if again := rt.ShardLoads(); &again[0] != &captured[0] || again[3] != 0 || again[7] != 0 {
		t.Fatal("second reset did not clear and reuse the first buffer")
	}
	if fresh[1] != 2 {
		t.Fatal("second reset touched the window it just closed")
	}
}
