package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	elasticutor "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
	runpkg "repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// simRun is one simulator run and what it cost the host.
type simRun struct {
	label    string
	policy   string
	recorded bool // the program's own trace recorder was attached
	rep      *engine.Report
	trace    []byte
	setup    time.Duration // engine construction
	// Host cost of the run proper (Engine.Run, or handle Start..Wait).
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// measure runs fn from a collected heap, whatever ran before it, and charges
// its host cost to the run.
func (s *simRun) measure(fn func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSelf(), time.Now()
	fn()
	s.wall, s.cpu = time.Since(t0), cpuSelf()-c0
	runtime.ReadMemStats(&m1)
	s.mallocs, s.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
}

// simTotals is the host cost and the work of a group of runs.
type simTotals struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	tuples         int64 // weight the operators completed, warm-up included
	generated      int64 // weight the sources sampled, refused tuples included
	events         uint64
	setups         []float64 // seconds
	failures       int
}

func sumRuns(runs []simRun) simTotals {
	var t simTotals
	for _, s := range runs {
		t.setups = append(t.setups, s.setup.Seconds())
		if s.rep == nil {
			t.failures++
			continue
		}
		t.wall += s.wall
		t.cpu += s.cpu
		t.mallocs += s.mallocs
		t.bytes += s.bytes
		t.events += s.rep.Events
		for _, op := range s.rep.PerOperator {
			t.tuples += op.Processed
			t.generated += op.Offered
		}
		t.generated += s.rep.Blocked
	}
	return t
}

// guarded runs fn and turns a panic (AssertOrder, an engine bug) into an
// issue instead of a dead child.
func guarded(r *results, label string, fn func() error) {
	defer func() {
		if v := recover(); v != nil {
			r.issuef("%s: panic: %v", label, v)
		}
	}()
	if err := fn(); err != nil {
		r.issuef("%s: %v", label, err)
	}
}

// drive runs a built engine for d. The end-to-end pass calls Engine.Run as
// the paper experiments do; the traced pass goes through the run handle,
// which keeps the timeline, and optionally records the program's own trace.
func (s *simRun) drive(tr *tracer, parent int, e *engine.Engine, d simtime.Duration, viaHandle bool, hdr *obs.Header) error {
	if viaHandle {
		return s.driveHandle(tr, parent, runpkg.NewSim(e, d), hdr)
	}
	sp := tr.begin("Engine.Run", s.label, parent)
	s.measure(func() { s.rep = e.Run(d) })
	tr.end(sp)
	return nil
}

// driveHandle starts an unstarted simulator handle and waits it out.
func (s *simRun) driveHandle(tr *tracer, parent int, h *runpkg.Run, hdr *obs.Header) error {
	var buf bytes.Buffer
	var rec *obs.Recorder
	if hdr != nil {
		rec = elasticutor.AttachRecorder(h, &buf, *hdr, obs.RecordOptions{SnapshotEvery: time.Second})
	}
	var err error
	sp := tr.begin("Run.Start+Wait", s.label, parent)
	s.measure(func() {
		h.Start(context.Background())
		s.rep, err = h.Wait()
	})
	tr.end(sp)
	if rec != nil {
		if ferr := rec.Finish(s.rep, h.LostEvents(), err); ferr != nil && err == nil {
			err = ferr
		}
		s.trace = buf.Bytes()
	}
	return err
}

// ---- sim-shuffle ----

// shuffleOptions is the paper's Fig 6 cell at 16 shuffles/min with the
// full-scale dimensions of internal/experiments, but Batch=1: a tuple is an
// event. The smoke scale keeps the shape on the quick-scale 4-node cluster.
func shuffleOptions(p params, par engine.Paradigm, warm simtime.Duration) core.MicroOptions {
	spec := workload.DefaultSpec()
	spec.ShufflesPerMin = 16
	opt := core.MicroOptions{
		Paradigm: par, Nodes: 32, SourceExecutors: 32, Y: 32, Z: 256, OpShards: 8192,
		Batch: 1, Seed: p.seed, WarmUp: warm, AssertOrder: true,
	}
	spec.Keys, spec.Skew = 10000, 0.5
	if p.smoke {
		opt.Nodes, opt.SourceExecutors, opt.Y, opt.OpShards = 4, 4, 4, 1024
		spec.Keys, spec.Skew = 2500, 0.75
	}
	opt.Spec = spec
	// 90 % of the cluster's CPU-bound capacity, the regime of the paper.
	opt.Rate = 0.9 * float64(opt.Nodes*8-opt.SourceExecutors) / spec.CPUCost.Seconds()
	return opt
}

func runSimShuffle(p params, r *results, tr *tracer) {
	// One virtual second per measured second; 35 % of it is warm-up, as the
	// 12 s of 34 s in the paper cell.
	virtual := time.Duration(p.workFrac() * float64(nominalSeconds*time.Second))
	warm := virtual * 35 / 100

	// Set-up is an engine build: half a millisecond, so it is sampled ten
	// times before every run and once more at the end.
	var setups []float64
	sampleSetups := func() bool {
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			if _, err := core.NewMicro(shuffleOptions(p, engine.Elasticutor, warm)); err != nil {
				r.issuef("sim-shuffle: build: %v", err)
				return false
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return true
	}

	type unit struct {
		label  string
		par    engine.Paradigm
		record bool
	}
	units := []unit{{"rc", engine.ResourceCentric, false}, {"elasticutor", engine.Elasticutor, false}}
	if p.traced {
		units = append(units, unit{"elasticutor-traced", engine.Elasticutor, true})
	}
	var runs []simRun
	for _, u := range units {
		if !sampleSetups() {
			return
		}
		run := simRun{label: u.label, policy: u.par.String(), recorded: u.record}
		guarded(r, "sim-shuffle "+u.label, func() error {
			parent := tr.begin("run", u.label, -1)
			defer tr.end(parent)
			sp := tr.begin("core.NewMicro", u.label, parent)
			t0 := time.Now()
			m, err := core.NewMicro(shuffleOptions(p, u.par, warm))
			run.setup = time.Since(t0)
			tr.end(sp)
			if err != nil {
				return err
			}
			var hdr *obs.Header
			if u.record {
				hdr = &obs.Header{Backend: "sim", Policy: run.policy, Scenario: "sim-shuffle", Seed: p.seed, DurationMS: simtime.ToMillis(virtual)}
			}
			return run.drive(tr, parent, m.Engine, virtual, p.traced, hdr)
		})
		runs = append(runs, run)
	}
	tot := sumRuns(runs)
	r.attempted, r.failed = int64(len(runs)), int64(tot.failures)
	rc, ec := runs[0].rep, runs[1].rep
	if rc == nil || ec == nil || !sampleSetups() {
		return
	}
	setups = append(setups, tot.setups...)
	simEndToEnd(r, tot, setups, []*engine.Report{rc}, []*engine.Report{ec})
	simEngineLayer(r, tot, setups, runs)

	if p.traced {
		ref, traced := runs[1], runs[2]
		if traced.rep != nil {
			// Same seed, same event sequence: the two walls differ only by
			// what observing costs.
			r.set("obs.trace_overhead_pct.sim-shuffle", 100*(traced.wall.Seconds()-ref.wall.Seconds())/ref.wall.Seconds())
			if traced.rep.Events != ref.rep.Events {
				r.issuef("sim-shuffle: recording changed the run: %d events traced, %d untraced", traced.rep.Events, ref.rep.Events)
			}
		}
		traceStats(r, [][]byte{traced.trace})
		simShuffleProbes(p, r, tr, tot)
	}
}

// simEndToEnd sets the metrics both sim workloads share. rcs and ecs are the
// resource-centric and Elasticutor reports, pairwise per scenario.
func simEndToEnd(r *results, tot simTotals, setups []float64, rcs, ecs []*engine.Report) {
	r.set("setup_s", setupTime(setups))
	r.set("sim_wall_s", tot.wall.Seconds())
	r.set("sim_mallocs_m", float64(tot.mallocs)/1e6)
	if tot.tuples > 0 && tot.wall > 0 {
		r.set("saturated_tput_tps", float64(tot.tuples)/tot.wall.Seconds())
		r.set("cpu_us_per_tuple", float64(tot.cpu)/1e3/float64(tot.tuples))
		r.set("mallocs_per_tuple", float64(tot.mallocs)/float64(tot.tuples))
	}
	var tput, latP50, latMean, latP99, tputRatio, latRatio []float64
	for i, ec := range ecs {
		rc := rcs[i]
		tput = append(tput, ec.ThroughputMean)
		latP50 = append(latP50, float64(ec.Latency.Quantile(0.5))/1e3)
		latMean = append(latMean, float64(ec.Latency.Mean())/1e3)
		latP99 = append(latP99, simtime.ToMillis(ec.Latency.Quantile(0.99)))
		if rc.ThroughputMean > 0 {
			tputRatio = append(tputRatio, ec.ThroughputMean/rc.ThroughputMean)
		}
		if ec.Latency.Mean() > 0 {
			latRatio = append(latRatio, float64(rc.Latency.Mean())/float64(ec.Latency.Mean()))
		}
	}
	r.set("model_tput_tps", mean(tput))
	r.set("lat_p50_us", mean(latP50))
	// Mean processing latency, the paper's Fig 6(b) figure: over ten seeds
	// it moves by 6-8 % of its median, the simulated median by 30 %.
	r.set("lat_typical_us", mean(latMean))
	r.set("lat_mean_us", mean(latMean))
	r.set("model_lat_p99_ms", mean(latP99))
	r.set("model_tput_ratio_ec_rc", mean(tputRatio))
	r.set("model_lat_ratio_rc_ec", mean(latRatio))
}

// simEngineLayer sets the engine.* and policy.* metrics from the reports and
// (when the runs went through a handle) their timelines.
func simEngineLayer(r *results, tot simTotals, setups []float64, runs []simRun) {
	r.set("engine.setup_ms", setupTime(setups)*1e3)
	r.set("engine.events", float64(tot.events))
	if tot.events > 0 && tot.wall > 0 {
		r.set("engine.events_per_s", float64(tot.events)/tot.wall.Seconds())
		r.set("engine.ns_per_event", float64(tot.wall)/float64(tot.events))
		r.set("engine.bytes_per_event", float64(tot.bytes)/float64(tot.events))
	}
	var repartitions, reassignments int64
	var invocations int
	var pause, drain, migrate, reroute, schedUS []float64
	stages := make([][]float64, metrics.NumStages)
	for _, s := range runs {
		if s.rep == nil || s.recorded {
			continue // the recorded duplicate would double every count
		}
		repartitions += int64(s.rep.Repartitions)
		reassignments += s.rep.Reassignments
		for _, ev := range s.rep.Timeline {
			switch {
			case ev.Kind == engine.EventPolicyInvoked:
				invocations++
			case ev.Kind == engine.EventRepartitionFinish && ev.Span != nil:
				pause = append(pause, simtime.ToMillis(ev.Span.Pause))
				drain = append(drain, simtime.ToMillis(ev.Span.Drain))
				migrate = append(migrate, simtime.ToMillis(ev.Span.Migrate))
				reroute = append(reroute, simtime.ToMillis(ev.Span.Reroute))
			}
		}
		if s.policy == "elasticutor" {
			for _, d := range s.rep.SchedulingWall {
				schedUS = append(schedUS, float64(d)/1e3)
			}
			for i, sh := range s.rep.LatencyStages.Shares() {
				stages[i] = append(stages[i], sh)
			}
		}
	}
	r.set("engine.repartitions", float64(repartitions))
	r.set("engine.reassignments", float64(reassignments))
	r.set("engine.rp_pause_ms", mean(pause))
	r.set("engine.rp_drain_ms", mean(drain))
	r.set("engine.rp_migrate_ms", mean(migrate))
	r.set("engine.rp_reroute_ms", mean(reroute))
	r.set("engine.stage_queue_share", mean(stages[metrics.StageQueue]))
	r.set("engine.stage_service_share", mean(stages[metrics.StageService]))
	r.set("engine.stage_repartition_share", mean(stages[metrics.StageRepartition]))
	r.set("engine.stage_migration_share", mean(stages[metrics.StageMigration]))
	r.set("policy.schedule_wall_us", mean(schedUS))
	r.set("policy.invocations", float64(invocations))
}

// simLedger estimates from outside how much of the simulator's wall time the
// probed layers explain: probe cost x how often the run called the layer.
// What is left is engine glue nobody has measured yet (ROADMAP item 1(d)).
func simLedger(r *results, tot simTotals, invocations int, eventNS, zipfNS, tupleNS, histNS, assignUS, allocateUS float64) {
	if tot.wall <= 0 {
		return
	}
	// executor.tuple_ns already contains one clock event per tuple (its
	// service completion), so only the remaining events are charged to
	// simtime on top.
	otherEvents := float64(tot.events) - float64(tot.tuples)
	if otherEvents < 0 {
		otherEvents = 0
	}
	explained := otherEvents*eventNS +
		float64(tot.generated)*zipfNS +
		float64(tot.tuples)*(tupleNS+histNS) +
		float64(invocations)*(assignUS+allocateUS)*1e3
	r.set("engine.unattributed_share", 1-explained/float64(tot.wall))
}

func simShuffleProbes(p params, r *results, tr *tracer, tot simTotals) {
	var eventNS, eventAllocs, zipfNS, tupleNS, tupleAllocs, reassignUS float64
	var assignUS, allocateUS, rebalanceUS, histNS, stageNS, foldUS float64
	probeSpan(tr, "simtime.Clock", func() { eventNS, eventAllocs = probeSimtime(p, 10000) })
	probeSpan(tr, "workload.Zipf.Sample", func() { zipfNS = probeZipf(p) })
	probeSpan(tr, "executor.Receive", func() { tupleNS, tupleAllocs = probeExecutorTuple(p) })
	probeSpan(tr, "executor.ReassignShard", func() { reassignUS = probeExecutorReassign(p) })
	probeSpan(tr, "scheduler+qmodel+balancer", func() { assignUS, allocateUS, rebalanceUS = probeScheduling(p) })
	probeSpan(tr, "metrics", func() { histNS, stageNS, foldUS = probeMetrics(p) })
	r.set("simtime.event_ns", eventNS)
	r.set("simtime.event_allocs", eventAllocs)
	r.set("workload.zipf_sample_ns", zipfNS)
	r.set("executor.tuple_ns", tupleNS)
	r.set("executor.tuple_allocs", tupleAllocs)
	r.set("executor.reassign_us", reassignUS)
	r.set("scheduler.assign_us", assignUS)
	r.set("qmodel.allocate_us", allocateUS)
	r.set("balancer.rebalance_us", rebalanceUS)
	r.set("metrics.hist_observe_ns", histNS)
	r.set("metrics.stage_observe_ns", stageNS)
	r.set("metrics.stage_fold_us", foldUS)
	simLedger(r, tot, int(r.vals["policy.invocations"]), eventNS, zipfNS, tupleNS, histNS, assignUS, allocateUS)
}

// ---- sim-churn ----

// churnPolicies is every built-in policy; resource-centric and Elasticutor
// lead so the paper's ratios pair up per scenario.
var churnPolicies = []string{"rc", "elasticutor", "static", "naive-ec"}

// churnRun builds and runs one built-in scenario under one policy.
func churnRun(p params, tr *tracer, name, pol, label string, record bool) (simRun, error) {
	run := simRun{label: label, policy: pol, recorded: record}
	parent := tr.begin("RunScenario", label, -1)
	defer tr.end(parent)
	sp, err := elasticutor.ScenarioByName(name)
	if err != nil {
		return run, err
	}
	bs := tr.begin("Spec.Build", label, parent)
	t0 := time.Now()
	inst, err := sp.Build(pol, p.seed)
	run.setup = time.Since(t0)
	tr.end(bs)
	if err != nil {
		return run, err
	}
	var hdr *obs.Header
	if record {
		h := elasticutor.ScenarioTraceHeader(sp, elasticutor.BackendSim, pol, p.seed)
		hdr = &h
	}
	return run, run.driveHandle(tr, parent, inst.Handle, hdr)
}

func runSimChurn(p params, r *results, tr *tracer) {
	names := elasticutor.Scenarios()
	n := int(float64(len(names))*p.workFrac() + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(names) {
		n = len(names) // the scenario list is the whole workload; longer runs add nothing
	}
	names = names[:n]

	var runs []simRun
	var rcs, ecs []*engine.Report
	var tracedWall, refWall time.Duration
	var traces [][]byte
	for _, name := range names {
		for _, pol := range churnPolicies {
			label := name + "/" + pol
			var run simRun
			guarded(r, "sim-churn "+label, func() (err error) {
				run, err = churnRun(p, tr, name, pol, label, false)
				return err
			})
			runs = append(runs, run)
		}
		k := len(runs) - len(churnPolicies)
		if rc, ec := runs[k].rep, runs[k+1].rep; rc != nil && ec != nil {
			rcs, ecs = append(rcs, rc), append(ecs, ec)
		}
		if p.traced && runs[k+1].rep != nil {
			// The Elasticutor run once more with the recorder attached.
			var traced simRun
			guarded(r, "sim-churn "+name+"/elasticutor-traced", func() (err error) {
				traced, err = churnRun(p, tr, name, "elasticutor", name+"/elasticutor-traced", true)
				return err
			})
			if traced.rep != nil {
				tracedWall += traced.wall
				refWall += runs[k+1].wall
				traces = append(traces, traced.trace)
			}
		}
	}
	tot := sumRuns(runs)
	r.attempted, r.failed = int64(len(runs)), int64(tot.failures)
	if len(ecs) == 0 {
		r.issuef("sim-churn: no scenario completed under both rc and elasticutor")
		return
	}

	// Determinism: a second run of the first scenario on the same seed must
	// agree to the last digit on every deterministic field of its report.
	guarded(r, "sim-churn determinism", func() error {
		again, err := churnRun(p, nil, names[0], "elasticutor", "", false)
		if err != nil {
			return err
		}
		a, b := scenario.Fingerprint(names[0], ecs[0]), scenario.Fingerprint(names[0], again.rep)
		if a != b {
			return fmt.Errorf("same seed, different run:\n  %s\n  %s", a, b)
		}
		return nil
	})

	simEndToEnd(r, tot, tot.setups, rcs, ecs)
	simEngineLayer(r, tot, tot.setups, runs)

	if p.traced {
		if refWall > 0 {
			r.set("obs.trace_overhead_pct.sim-churn", 100*(tracedWall.Seconds()-refWall.Seconds())/refWall.Seconds())
		}
		traceStats(r, traces)
		simChurnProbes(p, r, tr, tot, names)
	}
}

func simChurnProbes(p params, r *results, tr *tracer, tot simTotals, names []string) {
	var eventNS, eventAllocs, moveUS, reassignUS float64
	probeSpan(tr, "simtime.Clock", func() { eventNS, eventAllocs = probeSimtime(p, 1) })
	probeSpan(tr, "state.Store", func() { moveUS = probeStateMove(p) })
	probeSpan(tr, "executor.ReassignShard", func() { reassignUS = probeExecutorReassign(p) })
	r.set("simtime.event_ns", eventNS)
	r.set("simtime.event_allocs", eventAllocs)
	r.set("state.move_us", moveUS)
	r.set("executor.reassign_us", reassignUS)

	// The ledger needs the per-tuple layers too; they are reported under
	// their own names only where they dominate (sim-shuffle).
	var zipfNS, tupleNS, histNS, assignUS, allocateUS float64
	probeSpan(tr, "ledger probes", func() {
		zipfNS = probeZipf(p)
		tupleNS, _ = probeExecutorTuple(p)
		histNS, _, _ = probeMetrics(p)
		assignUS, allocateUS, _ = probeScheduling(p)
	})
	simLedger(r, tot, int(r.vals["policy.invocations"]), eventNS, zipfNS, tupleNS, histNS, assignUS, allocateUS)

	// What users of elasticutor-bench feel: the same run list through the
	// parallel harness, two workers against one.
	if len(names) > 4 {
		names = names[:4]
	}
	through := func(workers int) time.Duration {
		id := tr.begin(fmt.Sprintf("harness.Map workers=%d", workers), "probe", -1)
		defer tr.end(id)
		t0 := time.Now()
		_, err := harness.Map(&harness.Runner{Workers: workers, Seed: p.seed}, names,
			func(_ *harness.Ctx, name string) (*engine.Report, error) {
				return elasticutor.RunScenario(name, "elasticutor", p.seed)
			})
		if err != nil {
			r.issuef("sim-churn: harness.Map with %d workers: %v", workers, err)
		}
		return time.Since(t0)
	}
	one, two := through(1), through(2)
	if two > 0 {
		r.set("harness.speedup_2w", one.Seconds()/two.Seconds())
	}
}
