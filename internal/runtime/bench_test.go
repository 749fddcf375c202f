package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// saturatedConfig is the hot-path measurement topology: one node, one
// single-core executor, zero modeled CPU cost, a source offered far beyond
// capacity so backpressure finds the real ceiling. Batch (tuple weight per
// event) is 1, so processed weight == tuples moved through the full path.
func saturatedConfig(b *testing.B) engine.Config {
	b.Helper()
	pol, err := policy.ByName("elasticutor")
	if err != nil {
		b.Fatal(err)
	}
	setup := core.MicroSetup(core.MicroOptions{
		Policy:          pol,
		Nodes:           1,
		SourceExecutors: 1,
		Y:               1,
		Spec: workload.Spec{
			Keys: 1024, Skew: 0.5, TupleBytes: 64,
			CPUCost: 0, ShardStateKB: 1,
		},
		Rate:  50e6,
		Batch: 1,
		Seed:  1,
	})
	setup.Config.FixedCores = 1
	return setup.Config
}

// BenchmarkHotPathEndToEnd drives a saturated run on the runtime backend at
// GOMAXPROCS=1 and reports end-to-end tuples/s — the ROADMAP's headline
// hot-path number. Each iteration is one full 150 ms wall-clock run
// (placement, sources, workers, drain); the custom tuples/s metric is the
// measure, ns/op is just the run harness cost.
func BenchmarkHotPathEndToEnd(b *testing.B) {
	prev := goruntime.GOMAXPROCS(1)
	defer goruntime.GOMAXPROCS(prev)
	const window = 150 * time.Millisecond
	var processed int64
	var busy time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := New(saturatedConfig(b), Options{Clock: RealClock(), DrainTimeout: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if _, err := rt.Run(simtime.Duration(window)); err != nil {
			b.Fatal(err)
		}
		busy += time.Since(start)
		led := rt.Ledger()
		if !led.Conserved() {
			b.Fatalf("ledger not conserved: %v", led)
		}
		processed += led.Processed
	}
	b.ReportMetric(float64(processed)/busy.Seconds(), "tuples/s")
}

// benchEngine builds an idle (never Run) runtime whose placed executors the
// component benches drive directly, the calibration harness's pattern.
func benchEngine(b *testing.B, polName string, y int) *Engine {
	b.Helper()
	pol, err := policy.ByName(polName)
	if err != nil {
		b.Fatal(err)
	}
	setup := core.MicroSetup(core.MicroOptions{
		Policy:          pol,
		Nodes:           2,
		SourceExecutors: 1,
		Y:               y,
		Spec: workload.Spec{
			Keys: 1024, Skew: 0.5, TupleBytes: 64,
			CPUCost: 0, ShardStateKB: 1,
		},
		Rate:  1000,
		Batch: 1,
		Seed:  1,
	})
	e, err := New(setup.Config, Options{Clock: RealClock()})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// routedOp returns the first operator carrying a dynamic-routing snapshot
// (shard→executor table), the hot path's admission target.
func routedOp(b *testing.B, e *Engine) *op {
	b.Helper()
	for _, o := range e.opOrder {
		if o.snap.Load().table != nil {
			return o
		}
	}
	b.Fatal("no dynamically routed operator in bench engine")
	return nil
}

// BenchmarkHotPathAdmission measures one deliver of a 64-tuple batch into a
// dynamically routed operator (rc places one executor per free core: 15 on
// the two 8-core nodes): shard-load recording, per-tuple
// routing, the per-executor gather, and the channel hand-offs. The bench
// goroutine then plays the workers' side of the buffer-ownership contract
// inline (receive, un-account, release to the pool) so the measurement is
// the admission path itself, not scheduler wake latency. Steady state is 0
// allocations per batch (0 allocs/op with -benchmem): the pool recycles
// every buffer, and nothing is allocated per tuple.
func BenchmarkHotPathAdmission(b *testing.B) {
	e := benchEngine(b, "rc", 4)
	o := routedOp(b, e)
	snap := o.snap.Load()
	const batchSize = 64
	batch := make([]stream.Tuple, batchSize)
	for i := range batch {
		batch[i] = stream.Tuple{Key: stream.Key(i * 2654435761), Weight: 1, Bytes: 64}
	}
	drain := func() {
		for _, x := range snap.execs {
			for {
				select {
				case ts := <-x.in:
					var w int64
					for i := range ts {
						w += int64(ts[i].Weight)
					}
					o.inflight.Add(0, -w)
					x.queuedW.Add(-w)
					putTupleBuf(ts)
					continue
				default:
				}
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.deliver(o, batch, true, 0)
		drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(batchSize), "tuples/batch")
}

// benchRouteSink defeats dead-code elimination in BenchmarkRouteBatch.
var benchRouteSink int

// BenchmarkRouteBatch measures the per-tuple routing decision alone: the flat
// shard→executor table lookup the batched hot path uses under a dynamic-
// routing policy. Allocation-free by construction.
func BenchmarkRouteBatch(b *testing.B) {
	e := benchEngine(b, "rc", 4)
	o := routedOp(b, e)
	s := o.snap.Load()
	keys := make([]stream.Key, 1024)
	z := workload.NewZipf(1024, 0.5, simtime.NewRand(1))
	for i := range keys {
		keys[i] = z.Sample()
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += e.routeIdx(o, s, keys[i&1023])
	}
	benchRouteSink = sink
}
