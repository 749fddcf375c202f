package main

import (
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	runpkg "repro/internal/run"
	rtbackend "repro/internal/runtime"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// rt-ladder: the runtime backend serving arrivals. One spout feeds one
// stateful count bolt at zero modelled cost, so every microsecond measured
// is framework path; four rungs offer 250 k, 1 M, 2 M and 8 M tuples/s, each
// a fresh run. The paced rungs are open loop (a refused tuple is dropped and
// counted); on `over` backpressure closes the loop.

const (
	rtKeys      = 10000
	rtSkew      = 0.8
	rtTupleSize = 64
	rtNodes     = 2
	rtY         = 4
	// rtStampEvery is the harness's latency sampling stride.
	rtStampEvery = 64
	// rtRing bounds the tuples in flight the generator can describe: far
	// above 4 executors x 2048 credits plus the pending groups.
	rtRing = 1 << 18
	// tmax is the paper's latency target, the limit sustainable_rate_tps
	// holds the p99 to.
	tmax = 50 * time.Millisecond
)

// rung is one offered rate of the ladder and its share of the run's seconds.
type rung struct {
	name  string
	rate  float64
	share float64
}

// The paced rungs sit below, near and above today's sustainable rate; `over`
// offers about twice today's ceiling. `low` carries the latency and cost
// metrics and gets the longest span. `over` gets the shortest: offered more
// than its source loop can sample, the runtime takes about as long again as
// the run lasted to return from Wait (run.stop_overrun_ms.over), and a short
// rung keeps that inside the time budget.
var rtRungs = []rung{
	{"low", 250e3, 0.45},
	{"mid", 1e6, 0.20},
	{"high", 2e6, 0.20},
	{"over", 8e6, 0.15},
}

// burstCapped wraps a saturating offered rate so that one source wake-up is
// never handed more than burst seconds' worth of tuples. Offered more than its
// source loop can sample, the runtime's token bucket grants each wake-up a
// batch proportional to how long the previous one took; batches then grow
// geometrically, shutdown waits for the one in flight, and about one run in
// ten never came back (README.md, anomalies). A generator that is late sheds
// the excess instead, as a real source with a bounded fetch does; the source
// loop still never idles, so the ceiling measured is the same.
func burstCapped(rate float64, burst time.Duration) func(simtime.Time) float64 {
	last := time.Now()
	return func(simtime.Time) float64 {
		now := time.Now()
		dt := now.Sub(last)
		last = now
		if dt > burst {
			return rate * burst.Seconds() / dt.Seconds()
		}
		return rate
	}
}

// overBurst is four source ticks.
const overBurst = 8 * time.Millisecond

// rtRec describes one generated tuple to the handler. It rides in
// Tuple.Payload as a pointer into a pre-allocated ring: no allocation per
// tuple, and the program still receives nothing but generated inputs.
type rtRec struct {
	key, seq uint32
	stamp    int64 // wall ns at Sample on sampled tuples, else 0
}

type rtCount struct{ n int64 }

// rtGen is the harness on both sides of one rung: Sample runs on the single
// source goroutine, handle on the bolt's workers. Per-key slices are touched
// only while the program holds that key's state stripe, as its own state is.
type rtGen struct {
	zipf         *workload.Zipf
	shuffleEvery simtime.Duration
	nextShuffle  simtime.Duration
	warm         simtime.Duration
	ring         []rtRec
	n            uint64
	sent         []uint32
	firstSample  atomic.Int64

	lastSeq []uint32
	shadow  []int64
	lat     []int64
	latN    atomic.Int64

	orderViolations, stateMismatches, stale atomic.Int64
}

func newRtGen(seed uint64, warm, measure, shuffleEvery time.Duration, rate float64) *rtGen {
	// Room for every stamped tuple the bolt could complete in the window.
	samples := int(min(rate, 8e6)*measure.Seconds()/rtStampEvery) + 1024
	return &rtGen{
		zipf:         workload.NewZipf(rtKeys, rtSkew, simtime.NewRand(seed)),
		shuffleEvery: shuffleEvery,
		nextShuffle:  shuffleEvery,
		warm:         warm,
		ring:         make([]rtRec, rtRing),
		sent:         make([]uint32, rtKeys),
		lastSeq:      make([]uint32, rtKeys),
		shadow:       make([]int64, rtKeys),
		lat:          make([]int64, samples),
	}
}

func (g *rtGen) sample(now simtime.Time) (stream.Key, int, interface{}) {
	if g.n == 0 {
		g.firstSample.Store(time.Now().UnixNano())
	}
	at := simtime.Duration(now)
	if at >= g.nextShuffle {
		g.zipf.Shuffle() // the paper's key shuffle: same profile, new identities
		g.nextShuffle += g.shuffleEvery
	}
	k := g.zipf.Sample()
	rec := &g.ring[g.n%rtRing]
	g.n++
	g.sent[k]++
	rec.key, rec.seq, rec.stamp = uint32(k), g.sent[k], 0
	if g.n%rtStampEvery == 0 && at >= g.warm {
		rec.stamp = time.Now().UnixNano()
	}
	return k, rtTupleSize, rec
}

func (g *rtGen) handle(t stream.Tuple, s stream.StateAccessor) []stream.Tuple {
	rec := t.Payload.(*rtRec)
	k := uint32(t.Key)
	if rec.key != k {
		g.stale.Add(1) // the ring wrapped under a live tuple: a harness fault
	} else {
		if rec.seq <= g.lastSeq[k] {
			g.orderViolations.Add(1)
		}
		g.lastSeq[k] = rec.seq
		if rec.stamp != 0 {
			if i := g.latN.Add(1) - 1; int(i) < len(g.lat) {
				g.lat[i] = time.Now().UnixNano() - rec.stamp
			}
		}
	}
	c, _ := s.Get().(*rtCount)
	if c == nil {
		c = &rtCount{}
		s.Set(c)
	}
	c.n++
	g.shadow[k]++
	if c.n != g.shadow[k] {
		g.stateMismatches.Add(1) // state lost or duplicated by a reassignment
	}
	return nil
}

// latencies returns the recorded samples in microseconds.
func (g *rtGen) latencies() []float64 {
	n := int(g.latN.Load())
	if n > len(g.lat) {
		n = len(g.lat)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(g.lat[i]) / 1e3
	}
	return out
}

// rtBuild assembles one rung as an unstarted handle on the runtime backend.
func rtBuild(g *rtGen, rate func(simtime.Time) float64, warm, total time.Duration, seed uint64) (*rtbackend.Engine, *runpkg.Run, error) {
	pol, err := policy.ByName("elasticutor")
	if err != nil {
		return nil, nil, err
	}
	tp := stream.NewTopology("rt-ladder")
	gen := tp.Add(&stream.Operator{Name: "gen", Source: true})
	count := tp.Add(&stream.Operator{
		Name:          "count",
		Cost:          stream.FixedCost(0),
		Handler:       g.handle,
		StatePerShard: 32 << 10,
	})
	tp.Connect(gen.ID, count.ID)
	cfg := engine.Config{
		Topology:        tp,
		Cluster:         cluster.Default(rtNodes),
		Policy:          pol,
		SourceExecutors: 1,
		Y:               rtY,
		Batch:           1,
		Seed:            seed,
		WarmUp:          warm,
		Sources: map[stream.OperatorID]*engine.SourceDriver{
			gen.ID: {Rate: rate, Sample: g.sample},
		},
	}
	rt, err := rtbackend.New(cfg, rtbackend.Options{Clock: rtbackend.RealClock()})
	if err != nil {
		return nil, nil, err
	}
	return rt, runpkg.NewRuntime(rt, total), nil
}

// rtSetupSample times one more set-up of the ladder's topology.
func rtSetupSample(p params) (time.Duration, error) {
	g := newRtGen(p.seed, 0, 0, time.Hour, 0)
	t0 := time.Now()
	_, h, err := rtBuild(g, workload.ConstantRate(rtRungs[0].rate), 0, time.Minute, p.seed)
	if err != nil {
		return 0, err
	}
	return setupSample(h, t0, &g.firstSample)
}

// rungResult is what one rung contributes to the workload's metrics.
type rungResult struct {
	ok          bool // the run finished and its window was measurable
	tput        float64
	refused     float64 // share of offered tuples refused or dropped
	offeredN    int64   // tuples offered inside the window
	failedN     int64   // of those, refused or dropped
	latP50      float64
	latP99      float64
	latSamples  int
	queuedP50   float64
	growing     bool // backlog higher in the last third than in the first
	cpuPerTuple float64
	mallocs     float64 // per tuple
	gcPauseMS   float64
	overrunMS   float64
	setup       time.Duration
	snapshotUS  []float64
	orderViol   int64
	stateMis    int64
	rep         *engine.Report
	live        *liveResult
}

// runRung drives one rung and checks its outputs.
func runRung(p params, r *results, tr *tracer, rg rung, label string, span time.Duration, record bool) rungResult {
	warm, measure := splitSpan(span)
	g := newRtGen(p.seed, warm, measure, p.dur(2*time.Second), rg.rate)
	parent := tr.begin("rung", label, -1)
	defer tr.end(parent)

	bs := tr.begin("runtime.New", label, parent)
	t0 := time.Now()
	rate := workload.ConstantRate(rg.rate)
	if rg.name == "over" {
		rate = burstCapped(rg.rate, overBurst)
	}
	rt, h, err := rtBuild(g, rate, warm, warm+measure, p.seed)
	tr.end(bs)
	if err != nil {
		r.issuef("rt-ladder %s: build: %v", label, err)
		return rungResult{}
	}
	spec := liveSpec{label: label, warm: warm, measure: measure, record: record,
		hdr: obs.Header{Backend: "runtime", Policy: "elasticutor", Scenario: "rt-ladder/" + label,
			Seed: p.seed, DurationMS: simtime.ToMillis(warm + measure)}}
	live := driveLive(h, spec, tr, parent)
	out := rungResult{live: live, rep: live.rep, overrunMS: float64(live.overrun) / 1e6}
	if first := g.firstSample.Load(); first != 0 {
		out.setup = time.Unix(0, first).Sub(t0)
	}
	if live.err != nil || live.rep == nil {
		r.issuef("rt-ladder %s: %v", label, live.err)
		return out
	}

	// Correctness: order, state, ledger, and the handler's own count.
	led := rt.Ledger()
	if !led.Conserved() {
		r.issuef("rt-ladder %s: ledger not conserved: %v", label, led)
	}
	var handled int64
	for _, n := range g.shadow {
		handled += n
	}
	if handled != led.Processed {
		r.issuef("rt-ladder %s: handler saw %d tuples, ledger processed %d", label, handled, led.Processed)
	}
	out.orderViol, out.stateMis = g.orderViolations.Load(), g.stateMismatches.Load()
	if out.orderViol > 0 {
		r.issuef("rt-ladder %s: %d per-key order violations", label, out.orderViol)
	}
	if out.stateMis > 0 {
		r.issuef("rt-ladder %s: %d state mismatches", label, out.stateMis)
	}
	if n := g.stale.Load(); n > 0 {
		r.issuef("rt-ladder %s: generator ring wrapped under %d live tuples", label, n)
	}

	a, b, ok := live.window(spec)
	if !ok {
		r.issuef("rt-ladder %s: no measurable window (%d samples)", label, len(live.samples))
		return out
	}
	out.ok = true
	sec := (b.at - a.at).Seconds()
	done := float64(b.processed - a.processed)
	out.tput = done / sec
	out.offeredN, out.failedN = offeredBetween(a, b)
	out.failedN += live.rep.Dropped
	if out.offeredN > 0 {
		out.refused = float64(out.failedN) / float64(out.offeredN)
	}
	if done > 0 {
		out.cpuPerTuple = float64(b.cpu-a.cpu) / 1e3 / done
		out.mallocs = float64(live.memB.Mallocs-live.memA.Mallocs) / done
	}
	out.gcPauseMS = float64(live.memB.PauseTotalNs-live.memA.PauseTotalNs) / 1e6
	lats := g.latencies()
	out.latSamples = len(lats)
	out.latP50, out.latP99 = quantile(lats, 0.50), quantile(lats, 0.99)

	var queued, firstThird, lastThird []float64
	for _, s := range live.samples {
		if s.at < a.at || s.at > b.at {
			continue
		}
		queued = append(queued, float64(s.queued))
		out.snapshotUS = append(out.snapshotUS, float64(s.snapCost)/1e3)
		switch third := (s.at - a.at).Seconds() / sec; {
		case third < 1.0/3:
			firstThird = append(firstThird, float64(s.queued))
		case third > 2.0/3:
			lastThird = append(lastThird, float64(s.queued))
		}
	}
	out.queuedP50 = median(queued)
	// A backlog counts as growing past half again its early level plus a
	// few flushes' worth of slack: queue depth at a fixed rate is noisy.
	out.growing = mean(lastThird) > 1.5*mean(firstThird)+256
	return out
}

func runRtLadder(p params, r *results, tr *tracer) {
	rungs := rtRungs
	type unit struct {
		rg     rung
		label  string
		record bool
	}
	var units []unit
	var shares float64
	for _, rg := range rungs {
		units = append(units, unit{rg, rg.name, p.traced})
		shares += rg.share
	}
	if p.traced {
		// The traced pass repeats the saturated rung without the recorder:
		// the difference between the two is the cost of observing.
		over := rungs[len(rungs)-1]
		units = append(units, unit{over, "over-ref", false})
		shares += over.share
	}

	res := map[string]rungResult{}
	var setups, snapUS, exportMS []float64
	var traces [][]byte
	for _, u := range units {
		setups = append(setups, extraSetups(r, "rt-ladder", func() (time.Duration, error) { return rtSetupSample(p) })...)
		span := time.Duration(p.seconds * float64(time.Second) * u.rg.share / shares)
		rr := runRung(p, r, tr, u.rg, u.label, span, u.record)
		res[u.label] = rr
		r.attempted++
		if !rr.ok {
			r.failed++
		}
		if rr.setup > 0 {
			setups = append(setups, rr.setup.Seconds())
		}
		snapUS = append(snapUS, rr.snapshotUS...)
		if rr.live != nil {
			exportMS = append(exportMS, rr.live.exportCost...)
			traces = append(traces, rr.live.traceBytes)
		}
	}

	low, over := res["low"], res["over"]
	r.offered, r.refused = low.offeredN, low.failedN
	r.set("setup_s", setupTime(setups))
	// The most the backend delivered on any rung: `over` today, but a
	// collapse under overload would leave a paced rung ahead of it.
	best := 0.0
	for _, rg := range rungs {
		best = max(best, res[rg.name].tput)
	}
	r.set("saturated_tput_tps", best)
	r.set("cpu_us_per_tuple", low.cpuPerTuple)
	r.set("mallocs_per_tuple", over.mallocs)
	r.set("lat_p50_us", low.latP50)
	// The exact median: one host stall inside the window moves the mean and
	// the p99 by an order of magnitude and leaves the median alone.
	r.set("lat_typical_us", low.latP50)
	r.set("lat_p99_us", low.latP99)
	if low.rep != nil {
		r.set("model_tput_tps", low.rep.ThroughputMean)
		r.set("lat_mean_us", float64(low.rep.Latency.Mean())/1e3)
		r.set("model_lat_p99_ms", simtime.ToMillis(low.rep.Latency.Quantile(0.99)))
	}

	// Highest paced rung that loses at most 1 % of what it is offered,
	// keeps its p99 inside Tmax and does not grow a backlog.
	sustainable := 0.0
	for _, rg := range rungs[:len(rungs)-1] {
		rr := res[rg.name]
		if rr.ok && rr.refused <= 0.01 && rr.latP99 <= float64(tmax)/1e3 && !rr.growing {
			sustainable = rg.rate
		}
	}
	r.set("sustainable_rate_tps", sustainable)

	r.set("runtime.setup_ms", setupTime(setups)*1e3)
	r.set("run.snapshot_us", median(snapUS))
	var lost int
	var orderViol, stateMis int64
	for _, rg := range rungs {
		rr := res[rg.name]
		r.set("runtime.tput_tps."+rg.name, rr.tput)
		r.set("runtime.refused_share."+rg.name, rr.refused)
		r.set("runtime.queued_p50."+rg.name, rr.queuedP50)
		r.set("run.stop_overrun_ms."+rg.name, rr.overrunMS)
		if rg.name != "low" {
			r.set("runtime.lat_p50_us."+rg.name, rr.latP50)
			r.set("runtime.lat_p99_us."+rg.name, rr.latP99)
		}
		if rr.live != nil {
			lost += rr.live.lostEvents
		}
		orderViol += rr.orderViol
		stateMis += rr.stateMis
	}
	r.set("run.lost_events", float64(lost))
	r.set("runtime.cpu_us_per_tuple.over", over.cpuPerTuple)
	r.set("runtime.mallocs_per_tuple", over.mallocs)
	r.set("runtime.gc_pause_ms", over.gcPauseMS)
	if low.rep != nil {
		setStageShares(r, "runtime", low.rep.LatencyStages)
	}
	r.set("runtime.order_violations", float64(orderViol))
	r.set("runtime.state_mismatches", float64(stateMis))

	if p.traced {
		if ref := res["over-ref"]; ref.tput > 0 {
			r.set("obs.trace_overhead_pct.rt-ladder", 100*(ref.tput-over.tput)/ref.tput)
		}
		r.set("obs.export_ms", median(exportMS))
		traceStats(r, traces)
		rtProbes(p, r, tr)
	}
	if !over.ok || !low.ok {
		r.issuef("rt-ladder: a rung carrying end-to-end metrics did not complete (low ok=%v, over ok=%v)", low.ok, over.ok)
	}
	r.notef("rt-ladder latency samples at low: %d (%d beyond p99)", low.latSamples, low.latSamples/100)
}

// setStageShares reports the four-stage latency anatomy of a report as
// <layer>.stage_*_share.
func setStageShares(r *results, layer string, st *metrics.StageSet) {
	if st == nil {
		return
	}
	sh := st.Shares()
	r.set(layer+".stage_queue_share", sh[metrics.StageQueue])
	r.set(layer+".stage_service_share", sh[metrics.StageService])
	r.set(layer+".stage_repartition_share", sh[metrics.StageRepartition])
	r.set(layer+".stage_migration_share", sh[metrics.StageMigration])
}

// rtProbes times the layers the ladder leans on, from outside them.
func rtProbes(p params, r *results, tr *tracer) {
	probeSpan(tr, "workload.Zipf.Sample", func() { r.set("workload.zipf_sample_ns", probeZipf(p)) })
	probeSpan(tr, "metrics", func() {
		histNS, stageNS, foldUS := probeMetrics(p)
		r.set("metrics.hist_observe_ns", histNS)
		r.set("metrics.stage_observe_ns", stageNS)
		r.set("metrics.stage_fold_us", foldUS)
	})
	probeSpan(tr, "runtime.Calibrate", func() {
		t, err := rtbackend.Calibrate(rtbackend.CalibrateOptions{TupleWindow: p.dur(300 * time.Millisecond), Rounds: p.count(64)})
		if err != nil {
			r.issuef("rt-ladder: runtime.Calibrate: %v", err)
			return
		}
		r.set("runtime.calib_tuple_ns", float64(t.PerTupleOverheadNS))
		r.set("runtime.calib_control_us", float64(t.ControlDelayNS)/1e3)
		r.set("runtime.calib_migrate_mbps", t.MigrationBandwidthBps/8/1e6)
	})
}
