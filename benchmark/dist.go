package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/policy"
	runpkg "repro/internal/run"
	rtbackend "repro/internal/runtime"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// dist-churn: the control plane in this process, two self-spawned agents
// over loopback. The micro topology has no handler (user code cannot cross
// the process boundary) and zero modelled cost, so what is measured is
// framing, the per-batch ack round trip and state migration. Every paced run
// drains node 1 gracefully at half time, which moves that agent's 128 MB of
// resident shard state through the control plane beside the tuple traffic;
// only the first drain of a run moves bulk state, hence fresh runs.

const (
	distNodes     = 2
	distY         = 4
	distShardKB   = 256
	distPacedRate = 50e3
	distOverRate  = 1e6
	distPacedRuns = 3
)

// agentSet is the agent processes of one fleet. The CPU they burn is read
// from /proc; a drained agent exits mid-run and its last reading keeps
// counting, or the total would fall.
type agentSet struct {
	pids []int
	last []time.Duration
}

// agentsOf lists the agents serving nodes 0..distNodes-1 of a fleet.
func agentsOf(c *dist.Cluster) *agentSet {
	m := &agentSet{}
	for n := 0; n < distNodes; n++ {
		if pid := c.AgentPID(n); pid > 0 { // never signal pid -1: that is everyone
			m.pids = append(m.pids, pid)
		}
	}
	m.last = make([]time.Duration, len(m.pids))
	return m
}

func (m *agentSet) cpu() time.Duration {
	var sum time.Duration
	for i, pid := range m.pids {
		if c := cpuPid(pid); c > m.last[i] {
			m.last[i] = c
		}
		sum += m.last[i]
	}
	return sum
}

// waitGone blocks until the agent processes have exited, killing any that
// outlive the grace: the benchmark leaves no process behind.
func (m *agentSet) waitGone() {
	deadline := time.Now().Add(3 * time.Second)
	for _, pid := range m.pids {
		for syscall.Kill(pid, 0) == nil && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if syscall.Kill(pid, 0) == nil {
			syscall.Kill(pid, syscall.SIGKILL)
		}
	}
}

// distRun is one fresh distributed run and its harness-side measurements.
type distRun struct {
	live       *liveResult
	spec       liveSpec
	setup      time.Duration // build start to first generated tuple
	spawn      time.Duration // dist.New: listener, agent spawn, handshake
	drainWall  time.Duration // Inject(DrainNode) to EventNodeDrain
	drainBytes int64
	lostState  int64
	// preDrain is the sampler reading and allocation count at the moment
	// the drain was injected: the end of the run's undisturbed span.
	preDrain    liveSample
	preDrainMem runtime.MemStats
}

// distBuild assembles the workload's topology on a fresh two-agent fleet.
// saturating caps the offered rate per source wake-up (see burstCapped). It
// returns the engine, the wall time (UnixNano) of the first generated tuple,
// and when the build began.
func distBuild(p params, rate float64, warm time.Duration, saturating bool) (*dist.Engine, *atomic.Int64, time.Time, error) {
	first := new(atomic.Int64)
	t0 := time.Now()
	pol, err := policy.ByName("elasticutor")
	if err != nil {
		return nil, first, t0, err
	}
	setup := core.MicroSetup(core.MicroOptions{
		Policy: pol, Nodes: distNodes, SourceExecutors: 1, Y: distY,
		Spec:  workload.Spec{Keys: rtKeys, Skew: rtSkew, TupleBytes: rtTupleSize, ShardStateKB: distShardKB},
		Rate:  rate,
		Batch: 1, Seed: p.seed, WarmUp: warm,
	})
	src := setup.Config.Sources[setup.GenID]
	if saturating {
		src.Rate = burstCapped(rate, overBurst)
	}
	// The harness owns the key sampler; one source executor calls it.
	zipf := workload.NewZipf(rtKeys, rtSkew, simtime.NewRand(p.seed))
	src.Sample = func(simtime.Time) (stream.Key, int, interface{}) {
		if first.Load() == 0 {
			first.Store(time.Now().UnixNano())
		}
		return zipf.Sample(), rtTupleSize, nil
	}
	d, err := dist.New(setup.Config, rtbackend.Options{}, dist.Options{})
	return d, first, t0, err
}

// distSetupSample times one more set-up of the workload: fleet up, run
// started, first tuple generated; then everything is torn down again.
func distSetupSample(p params) (time.Duration, error) {
	d, first, t0, err := distBuild(p, distPacedRate, 0, false)
	if err != nil {
		return 0, err
	}
	agents := agentsOf(d.C)
	defer agents.waitGone()
	h := runpkg.NewRuntime(d, time.Minute)
	h.OnFinish(func(*engine.Report) { d.C.Close() })
	return setupSample(h, t0, first)
}

// runDist builds, drives and checks one distributed run. drain injects the
// graceful drain of node 1 at half time.
func runDist(p params, r *results, tr *tracer, label string, rate float64, span time.Duration, drain, record bool) distRun {
	warm, measure := splitSpan(span)
	out := distRun{}
	parent := tr.begin("run", label, -1)
	defer tr.end(parent)

	bs := tr.begin("dist.New", label, parent)
	d, firstSample, t0, err := distBuild(p, rate, warm, !drain)
	out.spawn = time.Since(t0)
	tr.end(bs)
	if err != nil {
		r.issuef("dist-churn %s: build: %v", label, err)
		return out
	}
	agents := agentsOf(d.C)
	defer agents.waitGone()

	h := runpkg.NewRuntime(d, warm+measure)
	h.OnFinish(func(*engine.Report) { d.C.Close() })

	// Drain bookkeeping: wall time from Inject to the drain event, and the
	// state bytes the program reports moved in between.
	var mu sync.Mutex
	var injectedAt, drainedAt time.Time
	var bytesBefore, bytesAfter int64
	bytesTaken := false
	injectSpan := -1
	h.Observe(func(ev engine.Event) {
		if ev.Kind == engine.EventNodeDrain {
			mu.Lock()
			drainedAt = time.Now()
			mu.Unlock()
		}
	})
	out.spec = liveSpec{label: label, warm: warm, measure: measure, record: record,
		agentCPU: agents.cpu,
		hdr: obs.Header{Backend: "dist", Policy: "elasticutor", Scenario: "dist-churn/" + label,
			Seed: p.seed, DurationMS: simtime.ToMillis(warm + measure)}}
	if drain {
		drainAt := warm + measure*2/5 // early enough that the drain ends inside the window
		out.spec.onTick = func(now liveSample, h *runpkg.Run) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case injectedAt.IsZero() && now.at >= drainAt:
				out.preDrain = now
				runtime.ReadMemStats(&out.preDrainMem)
				bytesBefore = h.Snapshot().MigrationBytes
				injectSpan = tr.begin("Run.Inject->EventNodeDrain", label, parent)
				injectedAt = time.Now()
				if err := h.Inject(engine.DrainNodeCmd(1)); err != nil {
					r.issuef("dist-churn %s: inject drain: %v", label, err)
				}
			case !drainedAt.IsZero() && !bytesTaken:
				bytesAfter = h.Snapshot().MigrationBytes
				bytesTaken = true
			}
		}
	}
	out.live = driveLive(h, out.spec, tr, parent)
	if first := firstSample.Load(); first != 0 {
		out.setup = time.Unix(0, first).Sub(t0)
	}
	if out.live.err != nil || out.live.rep == nil {
		d.C.Close() // an abandoned run never reached its OnFinish
		r.issuef("dist-churn %s: %v", label, out.live.err)
		return out
	}
	rep := out.live.rep

	if led := d.Ledger(); !led.Conserved() {
		r.issuef("dist-churn %s: ledger not conserved: %v", label, led)
	}
	out.lostState = rep.LostStateBytes
	if rep.LostStateBytes != 0 {
		r.issuef("dist-churn %s: %d state bytes lost across a graceful drain", label, rep.LostStateBytes)
	}
	if len(rep.ChurnErrors) > 0 {
		r.issuef("dist-churn %s: churn refused: %v", label, rep.ChurnErrors)
	}
	if drain {
		mu.Lock()
		if drainedAt.IsZero() || injectedAt.IsZero() {
			r.issuef("dist-churn %s: the drain never completed (drains=%d)", label, rep.NodeDrains)
		} else {
			out.drainWall = drainedAt.Sub(injectedAt)
			tr.endAt(injectSpan, drainedAt)
			if !bytesTaken {
				bytesAfter = rep.MigrationBytes
			}
			out.drainBytes = bytesAfter - bytesBefore
		}
		mu.Unlock()
	}
	return out
}

// pacedTotals sums the measured windows of a group of paced runs.
type pacedTotals struct {
	ok               bool // every run finished with a measurable window
	offered, refused int64
	// cpu and mallocs cover costTuples processed tuples.
	cpu        time.Duration
	mallocs    uint64
	costTuples int64

	tputs, modelTput, injMS []float64
	latP50, latMean, latP99 []float64
	winP50                  []float64 // p50 of every 1-second window past warm-up

	drainBytes int64
	drainWall  time.Duration
}

func sumPaced(r *results, runs []distRun) pacedTotals {
	t := pacedTotals{ok: true}
	for _, run := range runs {
		if run.live == nil || run.live.rep == nil {
			t.ok = false
			continue
		}
		a, b, ok := run.live.window(run.spec)
		if !ok {
			r.issuef("dist-churn %s: no measurable window", run.spec.label)
			t.ok = false
			continue
		}
		n := b.processed - a.processed
		rep := run.live.rep
		t.tputs = append(t.tputs, float64(n)/(b.at-a.at).Seconds())
		offered, refused := offeredBetween(a, b)
		t.offered += offered
		t.refused += refused + rep.Dropped
		// Cost per tuple is taken over the undisturbed span before the
		// drain: CPU and allocations per tuple follow the batch size, and
		// the drain shrinks batches by an amount that differs from run to
		// run. What the drain itself costs shows in model_tput_tps,
		// migration_mbps and run.inject_to_event_ms.
		if run.preDrain.processed > a.processed {
			t.cpu += run.preDrain.cpu - a.cpu
			t.mallocs += run.preDrainMem.Mallocs - run.live.memA.Mallocs
			t.costTuples += run.preDrain.processed - a.processed
		}
		t.modelTput = append(t.modelTput, rep.ThroughputMean)
		t.latP50 = append(t.latP50, float64(rep.Latency.Quantile(0.5))/1e3)
		for _, pt := range rep.LatencyQuantiles.Points() {
			if pt.Weight > 0 && simtime.Duration(pt.At) > run.spec.warm {
				t.winP50 = append(t.winP50, float64(pt.P50)/1e3)
			}
		}
		t.latMean = append(t.latMean, float64(rep.Latency.Mean())/1e3)
		t.latP99 = append(t.latP99, simtime.ToMillis(rep.Latency.Quantile(0.99)))
		t.drainBytes += run.drainBytes
		t.drainWall += run.drainWall
		t.injMS = append(t.injMS, float64(run.drainWall)/1e6)
	}
	return t
}

// cpuPerTuple is the CPU, agents included, one processed tuple cost (us).
func (t pacedTotals) cpuPerTuple() float64 {
	if t.costTuples == 0 {
		return 0
	}
	return float64(t.cpu) / 1e3 / float64(t.costTuples)
}

func runDistChurn(p params, r *results, tr *tracer) {
	// A paced run must outlast its drain, so it gets a longer span than the
	// saturated run; the traced pass adds an untraced paced reference.
	const pacedShare, overShare = 5.5, 3.5
	shares := distPacedRuns*pacedShare + overShare
	if p.traced {
		shares += pacedShare
	}
	span := func(share float64) time.Duration {
		return time.Duration(p.seconds * float64(time.Second) * share / shares)
	}

	var setups, spawns, snapUS, exportMS []float64
	run := func(label string, rate float64, share float64, drain, record bool) distRun {
		setups = append(setups, extraSetups(r, "dist-churn", func() (time.Duration, error) { return distSetupSample(p) })...)
		return runDist(p, r, tr, label, rate, span(share), drain, record)
	}
	var paced []distRun
	for i := 0; i < distPacedRuns; i++ {
		paced = append(paced, run(fmt.Sprintf("paced-%d", i+1), distPacedRate, pacedShare, true, p.traced))
	}
	all := append([]distRun(nil), paced...)
	var ref distRun
	if p.traced {
		ref = run("paced-ref", distPacedRate, pacedShare, true, false)
		all = append(all, ref)
	}
	// Saturation goes last: what it leaves behind cannot disturb a paced run.
	over := run("over", distOverRate, overShare, false, p.traced)
	all = append(all, over)

	var lostState int64
	var lostEvents int
	var traces [][]byte
	r.attempted = int64(len(all))
	for _, run := range all {
		if run.live == nil || run.live.rep == nil {
			r.failed++
			continue
		}
		setups = append(setups, run.setup.Seconds())
		spawns = append(spawns, run.spawn.Seconds()*1e3)
		lostEvents += run.live.lostEvents
		exportMS = append(exportMS, run.live.exportCost...)
		traces = append(traces, run.live.traceBytes)
		for _, s := range run.live.samples {
			snapUS = append(snapUS, float64(s.snapCost)/1e3)
		}
		lostState += run.lostState
	}
	t := sumPaced(r, paced)
	r.offered, r.refused = t.offered, t.refused

	// The most the backend delivered in any phase. Today that is the paced
	// rate: offered more than it can take, the distributed data plane
	// collapses below it (README.md, anomalies).
	overTput := windowTput(over)
	r.set("saturated_tput_tps", max(overTput, mean(t.tputs)))
	r.set("setup_s", setupTime(setups))
	r.set("model_tput_tps", mean(t.modelTput))
	r.set("lat_p50_us", mean(t.latP50))
	// The median window's median: the windows a drain falls into, and a
	// host stall, are outvoted by the undisturbed ones.
	r.set("lat_typical_us", median(t.winP50))
	r.set("lat_mean_us", mean(t.latMean))
	r.set("model_lat_p99_ms", mean(t.latP99))
	r.set("cpu_us_per_tuple", t.cpuPerTuple())
	if t.costTuples > 0 {
		r.set("mallocs_per_tuple", float64(t.mallocs)/float64(t.costTuples))
	}
	if t.drainWall > 0 {
		r.set("migration_mbps", float64(t.drainBytes)/1e6/t.drainWall.Seconds())
	}
	r.set("run.inject_to_event_ms", mean(t.injMS))
	r.set("dist.tput_tps.paced", mean(t.tputs))
	if t.offered > 0 {
		r.set("dist.refused_share.paced", float64(t.refused)/float64(t.offered))
	}
	r.set("dist.spawn_ms", median(spawns))
	r.set("dist.lost_state_bytes", float64(lostState))
	r.set("run.snapshot_us", median(snapUS))
	r.set("run.lost_events", float64(lostEvents))
	if over.live != nil && over.live.rep != nil {
		if a, b, ok := over.live.window(over.spec); ok {
			if offered, refused := offeredBetween(a, b); offered > 0 {
				r.set("dist.refused_share.over", float64(refused+over.live.rep.Dropped)/float64(offered))
			}
		}
		r.set("run.stop_overrun_ms.over", float64(over.live.overrun)/1e6)
	}
	if !t.ok || overTput == 0 {
		r.issuef("dist-churn: a phase carrying end-to-end metrics did not complete")
	}

	if p.traced {
		// Throughput is pinned by pacing, so the cost of observing shows as
		// CPU per tuple against the unrecorded paced run.
		if base := sumPaced(r, []distRun{ref}).cpuPerTuple(); base > 0 {
			r.set("obs.trace_overhead_pct.dist-churn", 100*(t.cpuPerTuple()-base)/base)
		}
		r.set("obs.export_ms", median(exportMS))
		traceStats(r, traces)
		distProbes(p, r, tr)
	}
}

// windowTput is the harness-clock throughput of a run's measured window.
func windowTput(run distRun) float64 {
	if run.live == nil {
		return 0
	}
	a, b, ok := run.live.window(run.spec)
	if !ok {
		return 0
	}
	return float64(b.processed-a.processed) / (b.at - a.at).Seconds()
}

// distProbes times the distributed layer on a stand-alone two-agent fleet,
// with no engine in the way.
func distProbes(p params, r *results, tr *tracer) {
	call := func(name string, fn func()) { probeSpan(tr, "Cluster."+name, fn) }
	var c *dist.Cluster
	var err error
	fail := func(what string, err error) { r.issuef("dist probe %s: %v", what, err) }

	call("NewCluster+StartNodes", func() {
		c, err = dist.NewCluster(dist.Options{StatsInterval: 100 * time.Millisecond})
		if err == nil {
			err = c.StartNodes(distNodes, 8)
		}
	})
	if err != nil {
		fail("spawn", err)
		if c != nil {
			c.Close()
		}
		return
	}
	agents := agentsOf(c)
	defer agents.waitGone()
	defer c.Close()

	var spanMu sync.Mutex
	var spans []rtbackend.RPCSpan
	c.OnRPC(func(sp rtbackend.RPCSpan) {
		if sp.Type == "process" {
			spanMu.Lock()
			spans = append(spans, sp)
			spanMu.Unlock()
		}
	})

	// Process: the per-batch ack round trip, zero cost, 128 shards touched.
	shards := make([]uint32, 128)
	for i := range shards {
		shards[i] = uint32(i)
	}
	rx := func(id uint32) rtbackend.RemoteExec {
		return rtbackend.RemoteExec{ID: id, PerShardBytes: distShardKB << 10}
	}
	process := func(node, n int) {
		for i := 0; i < n && err == nil; i++ {
			err = c.Process(node, rx(uint32(node+1)), 0, shards)
		}
	}
	n := p.count(20000)
	call("Process x1", func() {
		process(0, 64) // materialise the shards outside the timing
		spanMu.Lock()
		spans = spans[:0]
		spanMu.Unlock()
		process(0, n)
	})
	if err != nil {
		fail("process", err)
		return
	}
	spanMu.Lock()
	var rtt, send, wire, queue, service, reply []float64
	for _, sp := range spans {
		rtt = append(rtt, float64(sp.RTT)/1e3)
		send = append(send, float64(sp.SendEnqueue)/1e3)
		wire = append(wire, float64(sp.Wire)/1e3)
		queue = append(queue, float64(sp.AgentQueue)/1e3)
		service = append(service, float64(sp.AgentService)/1e3)
		reply = append(reply, float64(sp.Reply)/1e3)
	}
	spanMu.Unlock()
	r.set("dist.rpc_rtt_us_p50", quantile(rtt, 0.50))
	r.set("dist.rpc_rtt_us_p99", quantile(rtt, 0.99))
	r.set("dist.rpc_stage_us.send", mean(send))
	r.set("dist.rpc_stage_us.wire", mean(wire))
	r.set("dist.rpc_stage_us.queue", mean(queue))
	r.set("dist.rpc_stage_us.service", mean(service))
	r.set("dist.rpc_stage_us.reply", mean(reply))

	// Two callers, one per agent: what the round trip sustains in aggregate.
	var wall time.Duration
	var self0, agent0 time.Duration
	call("Process x2", func() {
		process(1, 64)
		self0, agent0 = cpuSelf(), agents.cpu()
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, distNodes)
		for node := 0; node < distNodes; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				for i := 0; i < n && errs[node] == nil; i++ {
					errs[node] = c.Process(node, rx(uint32(node+1)), 0, shards)
				}
			}(node)
		}
		wg.Wait()
		wall = time.Since(t0)
		for _, e := range errs {
			if e != nil {
				err = e
			}
		}
	})
	if err != nil {
		fail("process x2", err)
		return
	}
	r.set("dist.process_per_s", float64(distNodes*n)/wall.Seconds())
	if selfCPU, agentCPU := cpuSelf()-self0, agents.cpu()-agent0; selfCPU+agentCPU > 0 {
		r.set("dist.agent_cpu_share", float64(agentCPU)/float64(selfCPU+agentCPU))
	}

	// MoveExecState: the 32 MB node 0 now holds, bounced between the agents.
	var moved int64
	var moveWall time.Duration
	call("MoveExecState", func() {
		src, dst := 0, 1
		t0 := time.Now()
		for i := 0; i < p.count(6) && err == nil; i++ {
			var nb int64
			nb, err = c.MoveExecState(src, dst, rx(1))
			moved += nb
			src, dst = dst, src
		}
		moveWall = time.Since(t0)
	})
	if err != nil {
		fail("move exec state", err)
		return
	}
	if moveWall > 0 {
		r.set("dist.move_mbps", float64(moved)/1e6/moveWall.Seconds())
	}

	// MoveShard: one 256 KB shard of executor 2, which still lives on node 1.
	var shardUS []float64
	call("MoveShard", func() {
		src, dst := 1, 0
		for i := 0; i < p.count(200) && err == nil; i++ {
			t0 := time.Now()
			_, _, err = c.MoveShard(src, dst, rx(2), rx(2), 0)
			shardUS = append(shardUS, float64(time.Since(t0))/1e3)
			src, dst = dst, src
		}
	})
	if err != nil {
		fail("move shard", err)
		return
	}
	r.set("dist.move_shard_us", median(shardUS))
	r.set("dist.control_rtt_us", float64(c.ControlRTT())/1e3)
}
