package main

import (
	"runtime"
	"time"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/metrics"
	"repro/internal/qmodel"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/state"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Layer probes: each one times calls into a single module from outside it.
// They feed the per-layer list of the traced pass, and the sim workloads
// multiply them by call counts to estimate how much of the end-to-end wall
// time the probed layers explain (engine.unattributed_share).

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink any

// timeOp runs fn(ops) three times, each covering ops operations, and returns
// the median wall time and mean allocations per operation.
func timeOp(ops int, fn func(ops int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(ops)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d)/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(ns), mean(allocs)
}

// span times one probe as a trace span.
func probeSpan(tr *tracer, name string, fn func()) {
	id := tr.begin(name, "probe", -1)
	fn()
	tr.end(id)
}

// probeSimtime drives self-rescheduling chains through Clock.After/Run with
// `depth` events pending: depth 10 000 is sim-shuffle's heap, 1 sim-churn's.
func probeSimtime(p params, depth int) (ns, allocs float64) {
	ops := p.count(400000)
	return timeOp(ops, func(ops int) {
		clock := simtime.NewClock()
		left := ops
		for i := 0; i < depth; i++ {
			period := simtime.Duration(1+i%97) * simtime.Microsecond
			var tick func()
			tick = func() {
				left--
				if left <= 0 {
					clock.Stop()
					return
				}
				clock.After(period, tick)
			}
			clock.After(period, tick)
		}
		clock.Run()
	})
}

func probeZipf(p params) float64 {
	z := workload.NewZipf(10000, 0.5, simtime.NewRand(p.seed))
	ns, _ := timeOp(p.count(2000000), func(ops int) {
		var k stream.Key
		for i := 0; i < ops; i++ {
			k += z.Sample()
		}
		probeSink = k
	})
	return ns
}

// probeStateMove ping-pongs a 1 000-key shard between two stores.
func probeStateMove(p params) (us float64) {
	const keys = 1000
	a, b := state.NewStore(32<<10), state.NewStore(32<<10)
	for k := 0; k < keys; k++ {
		a.Accessor(0, stream.Key(k)).Set(k)
	}
	ns, _ := timeOp(p.count(200000), func(ops int) {
		src, dst := a, b
		for i := 0; i < ops; i++ {
			dst.Install(src.Extract(0))
			src, dst = dst, src
		}
		a, b = src, dst
	})
	return ns / 1e3
}

// probeEnv is the harness's executor.Env: a bare clock and cluster.
type probeEnv struct {
	clock *simtime.Clock
	cl    *cluster.Cluster
}

func (e *probeEnv) Clock() *simtime.Clock                  { return e.clock }
func (e *probeEnv) NodeOf(c cluster.CoreID) cluster.NodeID { return e.cl.NodeOf(c) }
func (e *probeEnv) Send(from, to cluster.NodeID, bytes int, done func()) {
	e.cl.Send(from, to, bytes, done)
}

func newProbeExecutor(nodes int) (*probeEnv, *executor.Executor) {
	clock := simtime.NewClock()
	env := &probeEnv{clock: clock, cl: cluster.New(clock, cluster.Default(nodes))}
	ex := executor.New(env, executor.Config{
		Name:               "probe",
		ShardOf:            func(k stream.Key) state.ShardID { return state.ShardID(k.Shard(256)) },
		Cost:               stream.FixedCost(simtime.Millisecond),
		StateBytesPerShard: 32 << 10,
		ControlDelay:       simtime.Millisecond,
		SerializeOverhead:  3500 * simtime.Microsecond,
	}, 0)
	return env, ex
}

// probeExecutorTuple pushes tuples through a stand-alone 4-core executor:
// Receive, queue, service completion on the clock, stats.
func probeExecutorTuple(p params) (ns, allocs float64) {
	env, ex := newProbeExecutor(1)
	for c := 1; c < 4; c++ {
		ex.AddCore(cluster.CoreID(c))
	}
	z := workload.NewZipf(10000, 0.5, simtime.NewRand(p.seed))
	return timeOp(p.count(300000), func(ops int) {
		for done := 0; done < ops; {
			n := min(1024, ops-done)
			now := env.clock.Now()
			for i := 0; i < n; i++ {
				ex.Receive(stream.Tuple{Key: z.Sample(), Weight: 1, Bytes: 128, Born: now})
			}
			env.clock.Run()
			done += n
		}
	})
}

// probeExecutorReassign moves one shard back and forth between tasks on two
// nodes: the full §3.3 protocol with a cross-node state migration.
func probeExecutorReassign(p params) (us float64) {
	env, ex := newProbeExecutor(2)
	perNode := cluster.Default(2).CoresPerNode
	local := executor.TaskID(0)
	remote := ex.AddCore(cluster.CoreID(perNode)) // first core of node 1
	ex.Receive(stream.Tuple{Key: 1, Weight: 1, Bytes: 128})
	env.clock.Run()
	shard := state.ShardID(stream.Key(1).Shard(256))
	ns, _ := timeOp(p.count(20000), func(ops int) {
		dst := remote
		for i := 0; i < ops; i++ {
			ex.ReassignShard(shard, dst, nil)
			env.clock.Run()
			if dst == remote {
				dst = local
			} else {
				dst = remote
			}
		}
	})
	return ns / 1e3
}

// probeScheduling times the three decision layers at Table 3's shape:
// 32 nodes x 43 executors; 256 shards x 8 tasks.
func probeScheduling(p params) (assignUS, allocateUS, rebalanceUS float64) {
	const nodes, m = 32, 43
	rng := simtime.NewRand(p.seed)
	in := scheduler.Input{
		Capacity:      make([]int, nodes),
		Local:         make([]int, m),
		StateBytes:    make([]float64, m),
		DataIntensity: make([]float64, m),
		Existing:      make([][]int, nodes),
		Alloc:         make([]int, m),
	}
	for i := range in.Capacity {
		in.Capacity[i] = 8
		in.Existing[i] = make([]int, m)
	}
	loads := make([]qmodel.ExecutorLoad, m)
	var lambda0 float64
	for j := 0; j < m; j++ {
		in.Local[j] = j % nodes
		in.StateBytes[j] = 8 << 20
		in.DataIntensity[j] = rng.Float64() * 2 * scheduler.DefaultPhi
		in.Alloc[j] = 1 + rng.Intn(5)
		in.Existing[in.Local[j]][j] = 1
		loads[j] = qmodel.ExecutorLoad{Lambda: rng.Float64() * 5000, Mu: 1000}
		lambda0 += loads[j].Lambda
	}
	ns, _ := timeOp(p.count(2000), func(ops int) {
		for i := 0; i < ops; i++ {
			res, err := scheduler.Assign(in)
			if err != nil {
				panic(err)
			}
			probeSink = res
		}
	})
	assignUS = ns / 1e3
	ns, _ = timeOp(p.count(2000), func(ops int) {
		for i := 0; i < ops; i++ {
			probeSink = qmodel.Allocate(loads, lambda0, 50*simtime.Millisecond, nodes*8-nodes)
		}
	})
	allocateUS = ns / 1e3

	const shards, tasks = 256, 8
	shardLoad := make([]float64, shards)
	assign := make([]int, shards)
	for i := range shardLoad {
		shardLoad[i] = rng.Float64() * 10
	}
	ns, _ = timeOp(p.count(5000), func(ops int) {
		for i := 0; i < ops; i++ {
			probeSink = balancer.Rebalance(shardLoad, assign, tasks, 1.2, 0)
		}
	})
	return assignUS, allocateUS, ns / 1e3
}

// probeMetrics times the per-tuple observation primitives and the window
// fold.
func probeMetrics(p params) (histNS, stageNS, foldUS float64) {
	h := metrics.NewHistogram()
	histNS, _ = timeOp(p.count(5000000), func(ops int) {
		for i := 0; i < ops; i++ {
			h.Observe(simtime.Duration(i%1000)*simtime.Microsecond, 1)
		}
	})
	rec := metrics.NewStageRecorder(8)
	stageNS, _ = timeOp(p.count(5000000), func(ops int) {
		for i := 0; i < ops; i++ {
			rec.Observe(i, metrics.StageObservation{
				Total:   simtime.Duration(i%1000) * simtime.Microsecond,
				Service: simtime.Duration(i%100) * simtime.Microsecond,
				Weight:  1,
			})
		}
	})
	cum, cumTotal := metrics.NewStageSet(), metrics.NewHistogram()
	ns, _ := timeOp(p.count(20000), func(ops int) {
		for i := 0; i < ops; i++ {
			for j := 0; j < 64; j++ {
				rec.Observe(j, metrics.StageObservation{Total: simtime.Duration(j) * simtime.Microsecond, Weight: 1})
			}
			rec.FoldWindow(cum, cumTotal)
		}
	})
	return histNS, stageNS, ns / 1e3
}
