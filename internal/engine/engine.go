// Package engine runs a stream topology on the simulated cluster. The engine
// is pure mechanism — cores, executors, wiring, routing tables, the global
// repartition protocol, measurement — and delegates every paradigm decision
// (placement shape, routing choice, control loops, scheduling) to an
// injected policy.Policy. The four paper paradigms — static, rc, naive-ec,
// elasticutor — live in internal/policy; Config.Paradigm selects among them
// for compatibility, Config.Policy injects any registered control plane.
//
// The engine is a single-threaded discrete-event simulation (see DESIGN.md
// for why that substitution preserves the paper's measurements).
package engine

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/state"
	"repro/internal/stream"
)

// Paradigm selects the execution paradigm. It is an alias of the policy
// package's type so existing configs, reports, and tests keep working.
type Paradigm = policy.Paradigm

// The four approaches compared in the paper's evaluation.
const (
	Static          = policy.Static
	ResourceCentric = policy.ResourceCentric
	NaiveEC         = policy.NaiveEC
	Elasticutor     = policy.Elasticutor
)

// SourceDriver generates the tuples of one source operator.
type SourceDriver struct {
	// Rate is the aggregate offered load in tuples/s across the operator's
	// source executors. Throughput experiments set it above cluster capacity
	// and let backpressure find the sustainable maximum.
	Rate func(now simtime.Time) float64
	// Sample draws the next tuple's key, size and payload.
	Sample func(now simtime.Time) (stream.Key, int, interface{})
}

// Config configures a run. Zero values get defaults from Defaults().
type Config struct {
	Topology *stream.Topology
	Cluster  cluster.Config
	Paradigm Paradigm
	// Policy injects the elasticity control plane directly; when nil, the
	// built-in policy for Paradigm is used. A Policy instance must not be
	// shared between engines (use policy.ByName per run).
	Policy  policy.Policy
	Sources map[stream.OperatorID]*SourceDriver

	SourceExecutors int // parallel instances per source operator (upstream count)

	Y        int // executors per non-source operator (Elasticutor; paper: 32)
	Z        int // shards per elastic executor (paper: 256)
	OpShards int // operator-level shards for RC repartitioning (paper: 8192)

	// YPerOp overrides Y for specific operators (multi-operator topologies
	// where light analytics operators need fewer executors than the hot one).
	YPerOp map[stream.OperatorID]int

	Theta float64          // imbalance threshold θ
	Phi   float64          // data-intensity threshold φ̃
	Tmax  simtime.Duration // scheduler latency target

	SchedulePeriod  simtime.Duration // dynamic scheduler cadence (1 s)
	RebalancePeriod simtime.Duration // intra-executor rebalance cadence (500 ms)

	// MaxInFlight bounds the tuples outstanding inside each first-hop
	// operator executor (backpressure credits), in weight units.
	MaxInFlight int

	// Batch makes every generated tuple event represent this many identical
	// tuples (weight); costs and accounting scale accordingly. Keeps event
	// counts tractable at paper-scale rates.
	Batch int

	// Control-plane cost model (see DESIGN.md calibration table).
	CtrlPerUpstream   simtime.Duration // RC per-upstream pause/update cost
	ControlDelay      simtime.Duration // executor-local control cost
	SerializeOverhead simtime.Duration // per cross-node state migration

	// FixedCores pins every elastic executor to exactly this many cores and
	// disables the dynamic scheduler (Fig 10–12 single-executor scalability;
	// 0 = scheduler-driven). Rebalancing stays active.
	FixedCores int
	// SourcesFree places source instances without reserving cores. Used only
	// by the Fig 9a fan-in sweep, where upstream executor count must exceed
	// the core count; sources are rate-driven and consume no simulated CPU.
	SourcesFree bool

	// DisableStateSharing forwards the §3.2 ablation to every executor:
	// shard moves pay serialization even within a process.
	DisableStateSharing bool

	Seed        uint64
	AssertOrder bool

	// WarmUp excludes the initial transient from the report's metrics.
	WarmUp simtime.Duration
	// MeasureOp identifies the operator whose processing rate is reported as
	// "throughput" (-1 = first non-source operator).
	MeasureOp stream.OperatorID
}

// Defaults fills unset fields with the paper's settings.
func (c Config) Defaults() Config {
	if c.SourceExecutors == 0 {
		c.SourceExecutors = 32
	}
	if c.Y == 0 {
		c.Y = 32
	}
	if c.Z == 0 {
		c.Z = 256
	}
	if c.OpShards == 0 {
		c.OpShards = 8192
	}
	if c.Theta == 0 {
		c.Theta = 1.2
	}
	if c.Phi == 0 {
		c.Phi = 512 * 1024
	}
	if c.Tmax == 0 {
		c.Tmax = 50 * simtime.Millisecond
	}
	if c.SchedulePeriod == 0 {
		c.SchedulePeriod = simtime.Second
	}
	if c.RebalancePeriod == 0 {
		c.RebalancePeriod = 500 * simtime.Millisecond
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2048
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.CtrlPerUpstream == 0 {
		c.CtrlPerUpstream = 2 * simtime.Millisecond
	}
	if c.ControlDelay == 0 {
		c.ControlDelay = simtime.Millisecond
	}
	if c.SerializeOverhead == 0 {
		c.SerializeOverhead = 3500 * simtime.Microsecond
	}
	if c.MeasureOp == 0 {
		c.MeasureOp = -1
	}
	return c
}

// sourceInstance is one parallel instance of a source operator.
type sourceInstance struct {
	op   *stream.Operator
	node cluster.NodeID
	// freeRide marks an instance relocated off a removed node: it squeezes
	// onto its new node without a reserved core (the surviving nodes' cores
	// are already spoken for; the churn's capacity hit is the lost node).
	freeRide bool

	// The emission loop's parameters: the instance is the recurring clock
	// event of its own loop.
	e     *Engine
	drv   *SourceDriver
	share float64 // instances of the operator, the divisor of its offered rate
}

// opRuntime is the per-operator runtime state. It doubles as the policy's
// view of the operator (policy.Operator).
type opRuntime struct {
	op    *stream.Operator
	execs []*executor.Executor
	// cores[i] lists the concrete cores executor i holds (parallel to execs).
	cores [][]cluster.CoreID

	firstHop bool // directly downstream of a source (backpressure applies)
	// opSharded organizes executor state by operator-level shard (baseline
	// placements) instead of the elastic executors' internal shards.
	opSharded bool

	// Dynamic-routing state (placements with Placement.DynamicRouting).
	opRouting   []int     // operator shard → executor index
	opShardLoad []float64 // arrivals per operator shard in current window
	// prevShardLoad is the previous window's slice (nil before the first
	// reset): ResetShardLoads swaps the two, so a reader that captured the old
	// window keeps it intact until the reset after next.
	prevShardLoad []float64
	paused        bool
	pauseBuf      []pendingTuple
	repartition   *rcRepartition

	// Live-observation counters (Run-handle snapshots and the per-operator
	// report): cumulative tuple weight admitted toward / processed by this
	// operator, plus the previous snapshot's cut of each.
	offeredW      int64
	processedW    int64
	lastOffered   int64
	lastProcessed int64
	// retiredExecs keeps executors churn removed from this operator, so the
	// per-operator report can still bill their historical stats.
	retiredExecs []*executor.Executor

	// Latency-anatomy accumulation, folded on the metrics window tick:
	// winRPStall collects §3.3 pause stall × weight attributed at replay time;
	// anatTotals are the cumulative post-warm-up per-stage totals; lastHopP50/
	// lastHopP99 hold the last non-empty window's hop-latency percentiles
	// (the Snapshot surface). hopWin is the fold's scratch: one metrics
	// window's hop latencies merged from the operator's executors, reset on
	// every tick.
	winRPStall simtime.Duration
	hopWin     *metrics.Histogram
	anatTotals [metrics.NumStages]simtime.Duration
	lastHopP50 simtime.Duration
	lastHopP99 simtime.Duration
}

// policy.Operator implementation.

// Meta returns the topology operator.
func (rt *opRuntime) Meta() *stream.Operator { return rt.op }

// Executors returns the current executor count.
func (rt *opRuntime) Executors() int { return len(rt.execs) }

// Routing returns the live operator-shard routing table (nil unless the
// placement requested dynamic routing).
func (rt *opRuntime) Routing() []int { return rt.opRouting }

// ShardLoads returns arrivals per operator shard in the current window.
func (rt *opRuntime) ShardLoads() []float64 { return rt.opShardLoad }

// ResetShardLoads starts a fresh measurement window. The previous window's
// slice is left intact for readers that captured it, for one window: the
// reset after this one clears it and puts it back into use.
func (rt *opRuntime) ResetShardLoads() {
	if len(rt.prevShardLoad) != len(rt.opShardLoad) {
		rt.prevShardLoad = make([]float64, len(rt.opShardLoad))
	}
	rt.opShardLoad, rt.prevShardLoad = rt.prevShardLoad, rt.opShardLoad
	clear(rt.opShardLoad)
}

// Repartitioning reports whether a global repartition is in flight.
func (rt *opRuntime) Repartitioning() bool { return rt.repartition != nil || rt.paused }

// pendingTuple is a tuple held at the engine while its operator is paused by
// an RC repartition, remembering where it came from and when it was buffered
// (the replay attributes the wait to the tuple's repartition stage).
type pendingTuple struct {
	from cluster.NodeID
	t    stream.Tuple
	at   simtime.Time
}

// Engine is one configured simulation.
type Engine struct {
	cfg     Config
	pol     policy.Policy
	clock   *simtime.Clock
	cluster *cluster.Cluster
	rng     *simtime.Rand

	sources map[stream.OperatorID][]*sourceInstance
	ops     map[stream.OperatorID]*opRuntime
	// opOrder lists the operator runtimes in topology order and polOps is the
	// same list as the policy sees it. Both are fixed at placement: churn
	// retires executors, never operators.
	opOrder   []*opRuntime
	polOps    []policy.Operator
	elastic   []*executor.Executor // all executors of non-source operators
	elasticOp []*opRuntime         // parallel: owning op of each elastic executor
	freeCores map[cluster.NodeID][]cluster.CoreID

	// retired holds executors removed by cluster churn; their historical
	// stats still belong in the final report.
	retired []*executor.Executor

	// onCapacity observes completed capacity changes (experiments, tests).
	onCapacity func(CapacityEvent)

	// inflight[ex] counts weight routed to an executor but not yet processed
	// by it (network transit + queues); the engine-side backpressure ledger.
	inflight map[*executor.Executor]int

	// lastMu caches per-executor service-rate estimates across idle windows.
	lastMu map[*executor.Executor]float64

	// onRepartition observes completed RC repartitions (experiments).
	onRepartition func(RepartitionReport)

	// onEvent streams typed run events to the Run handle (nil = disabled).
	onEvent func(Event)
	// rateFactor scales every source's offered load (CmdSetRate; 1 = off).
	rateFactor float64
	// lastSnapAt is the previous Snapshot's virtual time (rate windows).
	lastSnapAt simtime.Time

	// freeDeliveries is the free list of delivery records and deliveries the
	// number ever allocated (takeDelivery).
	freeDeliveries *delivery
	deliveries     int

	// blockedW counts tuple weight that backpressure refused per target
	// executor in the current scheduling window. It is folded into the
	// executor's λ so the model sees the *offered* arrival rate, not just
	// the admitted one (otherwise allocations could never outgrow the
	// current capacity).
	blockedW map[*executor.Executor]int64

	r *Report

	began   bool
	stopped bool
	// replaying marks route calls that re-deliver pause-buffered tuples, so
	// the offered-load counters don't bill them twice.
	replaying bool
}

// env adapts the engine to executor.Env.
type env Engine

func (e *env) Clock() *simtime.Clock                  { return e.clock }
func (e *env) NodeOf(c cluster.CoreID) cluster.NodeID { return e.cluster.NodeOf(c) }
func (e *env) Send(from, to cluster.NodeID, bytes int, done func()) {
	e.cluster.Send(from, to, bytes, done)
}

// New builds an engine. It panics on invalid topologies (setup-time
// programmer error) and returns an error for resource exhaustion.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.Defaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	pol := cfg.Policy
	par := cfg.Paradigm
	if pol == nil {
		pol = policy.ForParadigm(cfg.Paradigm)
	} else if p, ok := policy.ParadigmOf(pol.Name()); ok {
		par = p
	} else {
		par = Paradigm(-1) // custom policy outside the paper's four
	}
	e := &Engine{
		cfg:        cfg,
		pol:        pol,
		clock:      simtime.NewClock(),
		rng:        simtime.NewRand(cfg.Seed + 1),
		sources:    make(map[stream.OperatorID][]*sourceInstance),
		ops:        make(map[stream.OperatorID]*opRuntime),
		freeCores:  make(map[cluster.NodeID][]cluster.CoreID),
		inflight:   make(map[*executor.Executor]int),
		blockedW:   make(map[*executor.Executor]int64),
		rateFactor: 1,
		r:          newReport(par, pol.Name()),
	}
	e.cluster = cluster.New(e.clock, cfg.Cluster)
	for _, core := range e.cluster.Cores() {
		n := core.Node
		e.freeCores[n] = append(e.freeCores[n], core.ID)
	}
	if err := e.placeSources(); err != nil {
		return nil, err
	}
	if err := e.placeExecutors(); err != nil {
		return nil, err
	}
	e.wireOutputs()
	return e, nil
}

// Clock exposes the virtual clock so callers can schedule workload events
// (key shuffles, rate changes) before Run.
func (e *Engine) Clock() *simtime.Clock { return e.clock }

// Cluster exposes the simulated cluster (tests, reports).
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Every schedules fn at each multiple of interval, starting at interval.
func (e *Engine) Every(interval simtime.Duration, fn func()) {
	if interval <= 0 {
		panic("engine: Every with non-positive interval")
	}
	var tick func()
	next := simtime.Time(0)
	tick = func() {
		if e.stopped {
			return
		}
		fn()
		next = next.Add(interval)
		e.clock.At(next, tick)
	}
	next = next.Add(interval)
	e.clock.At(next, tick)
}

// takeFreeCore pops a free core, preferring the given node; any node when
// preferred is exhausted. Returns false if the cluster is out of cores.
func (e *Engine) takeFreeCore(prefer cluster.NodeID) (cluster.CoreID, bool) {
	if cs := e.freeCores[prefer]; len(cs) > 0 {
		core := cs[len(cs)-1]
		e.freeCores[prefer] = cs[:len(cs)-1]
		return core, true
	}
	for n := 0; n < e.cluster.Nodes(); n++ {
		node := cluster.NodeID(n)
		if cs := e.freeCores[node]; len(cs) > 0 {
			core := cs[len(cs)-1]
			e.freeCores[node] = cs[:len(cs)-1]
			return core, true
		}
	}
	return 0, false
}

// takeFreeCoreOn pops a free core on exactly the given node.
func (e *Engine) takeFreeCoreOn(n cluster.NodeID) (cluster.CoreID, bool) {
	if cs := e.freeCores[n]; len(cs) > 0 {
		core := cs[len(cs)-1]
		e.freeCores[n] = cs[:len(cs)-1]
		return core, true
	}
	return 0, false
}

func (e *Engine) releaseCore(c cluster.CoreID) {
	n := e.cluster.NodeOf(c)
	e.freeCores[n] = append(e.freeCores[n], c)
}

// placeSources reserves one core per source instance, round-robin on nodes.
func (e *Engine) placeSources() error {
	for _, op := range e.cfg.Topology.Sources() {
		if e.cfg.Sources[op.ID] == nil {
			return fmt.Errorf("engine: source operator %q has no driver", op.Name)
		}
		for i := 0; i < e.cfg.SourceExecutors; i++ {
			node := cluster.NodeID(i % e.cluster.Nodes())
			if !e.cfg.SourcesFree {
				if _, ok := e.takeFreeCoreOn(node); !ok {
					if _, ok := e.takeFreeCore(node); !ok {
						return fmt.Errorf("engine: out of cores placing sources")
					}
				}
			}
			e.sources[op.ID] = append(e.sources[op.ID], &sourceInstance{
				op: op, node: node,
				e: e, drv: e.cfg.Sources[op.ID], share: float64(e.cfg.SourceExecutors),
			})
		}
	}
	return nil
}

// placeExecutors creates the initial executors per paradigm.
func (e *Engine) placeExecutors() error {
	var nonSource []*stream.Operator
	for _, op := range e.cfg.Topology.Operators() {
		if !op.Source {
			nonSource = append(nonSource, op)
		}
	}
	if len(nonSource) == 0 {
		return fmt.Errorf("engine: topology has no non-source operators")
	}
	freeTotal := 0
	for _, cs := range e.freeCores {
		freeTotal += len(cs)
	}
	if freeTotal < len(nonSource) {
		return fmt.Errorf("engine: %d cores cannot host %d operators", freeTotal, len(nonSource))
	}

	knobs := e.knobs()
	for idx, op := range nonSource {
		pl := e.pol.Place(knobs, op, idx, len(nonSource), freeTotal)
		rt := &opRuntime{op: op, firstHop: e.isFirstHop(op), opSharded: pl.OperatorSharded, hopWin: metrics.NewHistogram()}
		count := pl.Executors
		if count < 1 {
			count = 1
		}
		for i := 0; i < count; i++ {
			local := cluster.NodeID((idx + i) % e.cluster.Nodes())
			core, ok := e.takeFreeCore(local)
			if !ok {
				if i == 0 {
					return fmt.Errorf("engine: out of cores placing executor for %q", op.Name)
				}
				break // EC can start under-provisioned; the scheduler grows it
			}
			ex := e.newExecutor(rt, i, e.cluster.NodeOf(core), core)
			rt.execs = append(rt.execs, ex)
			rt.cores = append(rt.cores, []cluster.CoreID{core})
			// Fixed-core mode (Fig 10–12): grant the remaining cores now,
			// local first, then spilling to remote nodes like the paper's
			// single-executor scale-out.
			for extra := 1; extra < e.cfg.FixedCores; extra++ {
				c, got := e.takeFreeCore(ex.LocalNode())
				if !got {
					break
				}
				ex.AddCore(c)
				rt.cores[len(rt.cores)-1] = append(rt.cores[len(rt.cores)-1], c)
			}
		}
		if pl.DynamicRouting {
			rt.opRouting = make([]int, e.cfg.OpShards)
			for s := range rt.opRouting {
				rt.opRouting[s] = s % len(rt.execs)
			}
			rt.opShardLoad = make([]float64, e.cfg.OpShards)
		}
		e.ops[op.ID] = rt
		e.opOrder = append(e.opOrder, rt)
		e.polOps = append(e.polOps, rt)
		for _, ex := range rt.execs {
			e.elastic = append(e.elastic, ex)
			e.elasticOp = append(e.elasticOp, rt)
		}
	}
	return nil
}

// isFirstHop reports whether op consumes directly from a source.
func (e *Engine) isFirstHop(op *stream.Operator) bool {
	for _, u := range op.Upstream() {
		if e.cfg.Topology.Operator(u).Source {
			return true
		}
	}
	return false
}

// newExecutor builds one executor for the runtime, configured per the
// policy's placement decision.
func (e *Engine) newExecutor(rt *opRuntime, idx int, local cluster.NodeID, core cluster.CoreID) *executor.Executor {
	op := rt.op
	shardOf := func(k stream.Key) state.ShardID { return state.ShardID(k.Shard(e.cfg.Z)) }
	stateBytes := op.StatePerShard
	if rt.opSharded {
		// Baselines: state is organized by operator-level shard so that RC
		// repartitioning can move it between executors. A single task serves
		// everything inside the executor.
		shardOf = func(k stream.Key) state.ShardID { return state.ShardID(k.OperatorShard(e.cfg.OpShards)) }
		if stateBytes > 0 {
			// Keep the *total* operator state comparable across paradigms:
			// the paper sizes state per elastic-executor shard (z per
			// executor, y executors). RC has OpShards shards for the whole
			// operator.
			total := op.StatePerShard * e.cfg.Z * e.cfg.Y
			stateBytes = total / e.cfg.OpShards
			if stateBytes < 1 {
				stateBytes = 1
			}
		}
	}
	cfg := executor.Config{
		Name:                fmt.Sprintf("%s-%d", op.Name, idx),
		LocalNode:           local,
		ShardOf:             shardOf,
		Cost:                op.Cost,
		Handler:             op.Handler,
		OutBytes:            op.OutBytes,
		Selectivity:         op.Selectivity,
		StateBytesPerShard:  stateBytes,
		Theta:               e.cfg.Theta,
		MaxInFlight:         0, // backpressure is the engine-side ledger
		ControlDelay:        e.cfg.ControlDelay,
		SerializeOverhead:   e.cfg.SerializeOverhead,
		AssertOrder:         e.cfg.AssertOrder,
		DisableStateSharing: e.cfg.DisableStateSharing,
	}
	return executor.New((*env)(e), cfg, core)
}

// wireOutputs connects executor emissions, latency measurement, throughput
// accounting, and the engine inflight ledger.
func (e *Engine) wireOutputs() {
	measure := e.measureOp()
	for id, rt := range e.ops {
		opID := id
		rt := rt
		sink := len(rt.op.Downstream()) == 0
		for _, ex := range rt.execs {
			e.wireExecutor(rt, ex, opID == measure, sink)
		}
	}
}

func (e *Engine) wireExecutor(rt *opRuntime, ex *executor.Executor, measured, sink bool) {
	downstream := rt.op.Downstream()
	ex.OnOutput = func(ts []stream.Tuple) {
		for _, t := range ts {
			for _, d := range downstream {
				e.route(ex.LocalNode(), d, t)
			}
		}
	}
	ex.OnProcessed = func(t stream.Tuple) {
		e.inflight[ex] -= t.Weight
		rt.processedW += int64(t.Weight)
		if measured {
			e.r.observeProcessed(e.clock.Now(), t.Weight, e.cfg.WarmUp)
		}
	}
	ex.OnDropped = func(w int) {
		// Weight destroyed inside the executor (node failure, retirement)
		// leaves the engine's backpressure ledger, or the pipe would look
		// full forever.
		e.inflight[ex] -= w
	}
	if sink {
		ex.OnLatency = func(d simtime.Duration, t stream.Tuple) {
			e.r.observeLatency(e.clock.Now(), metrics.StageObservation{
				Total:       d,
				Service:     t.Svc,
				Repartition: t.RPStall,
				Migration:   t.MGStall,
				Weight:      t.Weight,
			}, e.cfg.WarmUp)
		}
	}
}

// measureOp resolves the throughput-measured operator.
func (e *Engine) measureOp() stream.OperatorID {
	if e.cfg.MeasureOp >= 0 {
		return e.cfg.MeasureOp
	}
	for _, op := range e.cfg.Topology.Operators() {
		if !op.Source {
			return op.ID
		}
	}
	return -1
}

// Run executes the simulation for the given virtual duration and returns the
// report. Run may be called once per engine. It is the monolithic form of the
// stepped Begin / StepUntil / Finish cycle the Run handle drives.
func (e *Engine) Run(d simtime.Duration) *Report {
	e.Begin()
	e.StepUntil(simtime.Time(0).Add(d))
	return e.Finish(d)
}

// Begin arms the run: source emission loops, the policy's control loops, and
// series sampling. Idempotent so the Run wrapper and external drivers can't
// double-start the loops.
func (e *Engine) Begin() {
	if e.began {
		return
	}
	e.began = true
	e.startSources()
	e.startControlLoops()
	e.startSeriesSampling()
}

// StepUntil advances the simulation to the given virtual time — the stepped
// execution mode. Between calls the engine is at a safe point: no event is
// mid-flight, so commands (Apply) and observations (Snapshot) see a
// consistent world. Repeated StepUntil calls with increasing bounds execute
// exactly the event sequence one monolithic run would.
func (e *Engine) StepUntil(t simtime.Time) {
	e.clock.RunUntil(t)
}

// Finish stops the run and assembles the report; d is the virtual span the
// report covers (the requested duration, or less when the run was cancelled
// at a safe point).
func (e *Engine) Finish(d simtime.Duration) *Report {
	e.stopped = true
	e.finishReport(d)
	return e.r
}

// startSeriesSampling records the 1-second throughput series (Fig 7/16) and
// folds the latency-anatomy windows. Both ride the same Every callback: the
// anatomy fold must not add clock events of its own, or every golden-pinned
// event count would shift.
func (e *Engine) startSeriesSampling() {
	e.Every(simtime.Second, func() {
		now := e.clock.Now()
		warm := simtime.Duration(now) <= e.cfg.WarmUp
		if !warm {
			e.r.sampleSeries(now)
		}
		e.foldAnatomy(warm)
	})
}

// foldAnatomy drains each executor's anatomy window and the per-operator
// pause-stall accumulator into the operator's cumulative stage totals. The
// queue stage is the residual of the hop-latency sum, clamped non-negative.
// During warm-up the windows are drained and discarded, so the totals cover
// the measured span only — like every other post-warm-up metric.
func (e *Engine) foldAnatomy(warm bool) {
	for _, rt := range e.opOrder {
		hop := rt.hopWin
		hop.Reset()
		var svc, mg simtime.Duration
		for _, ex := range rt.execs {
			s, m := ex.TakeAnatomy(hop)
			svc, mg = svc+s, mg+m
		}
		for _, ex := range rt.retiredExecs {
			s, m := ex.TakeAnatomy(hop)
			svc, mg = svc+s, mg+m
		}
		rp := rt.winRPStall
		rt.winRPStall = 0
		if warm {
			continue
		}
		// Replayed tuples are re-stamped at route(), so the pause stall (rp)
		// is *outside* the hop sum; shard-pause buffering (mg) happens after
		// the stamp and is inside it. Only the latter is subtracted.
		queue := hop.Sum() - svc - mg
		if queue < 0 {
			queue = 0
		}
		rt.anatTotals[metrics.StageQueue] += queue
		rt.anatTotals[metrics.StageService] += svc
		rt.anatTotals[metrics.StageRepartition] += rp
		rt.anatTotals[metrics.StageMigration] += mg
		if hop.Count() > 0 {
			rt.lastHopP50 = hop.Quantile(0.5)
			rt.lastHopP99 = hop.Quantile(0.99)
		}
	}
}

// finishReport aggregates executor stats into the report.
func (e *Engine) finishReport(d simtime.Duration) {
	e.r.Duration = d
	measured := d - e.cfg.WarmUp
	if measured <= 0 {
		measured = d
	}
	e.r.MeasuredSpan = measured
	for _, ex := range append(append([]*executor.Executor(nil), e.elastic...), e.retired...) {
		st := ex.Stats
		e.r.MigrationBytes += st.MigrationBytes
		e.r.RemoteTransferBytes += st.RemoteTransferBytes
		e.r.Reassignments += st.Reassignments
		e.r.IntraNodeReassigns += st.IntraNodeReassigns
		e.r.InterNodeReassigns += st.InterNodeReassigns
		e.r.SyncTimeTotal += st.SyncTimeTotal
		e.r.MigrationTimeTotal += st.MigrationTimeTotal
		e.r.Dropped += st.DroppedTuples
	}
	for _, rt := range e.opOrder {
		os := OperatorStats{
			Name:      rt.op.Name,
			Executors: len(rt.execs),
			Retired:   len(rt.retiredExecs),
			Offered:   rt.offeredW,
			Processed: rt.processedW,
		}
		for _, ex := range append(append([]*executor.Executor(nil), rt.execs...), rt.retiredExecs...) {
			os.MigrationBytes += ex.Stats.MigrationBytes
			os.Reassignments += ex.Stats.Reassignments
		}
		e.r.PerOperator = append(e.r.PerOperator, os)
	}
	e.r.Events = e.clock.Processed
	e.r.finalize()
}
