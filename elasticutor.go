// Package elasticutor is a Go reproduction of "Elasticutor: Rapid Elasticity
// for Realtime Stateful Stream Processing" (Wang, Fu, Ma, Winslett, Zhang;
// SIGMOD 2019). It provides a deterministic simulated stream-processing
// engine with four execution paradigms — static, resource-centric, naive
// executor-centric, and Elasticutor — plus the elastic executors, dynamic
// scheduler, and baselines the paper evaluates.
//
// The public API is a small facade over the internal packages:
//
//	b := elasticutor.NewBuilder("wordcount")
//	src := b.Spout("sentences", elasticutor.SpoutConfig{
//		Rate:   elasticutor.ConstantRate(50000),
//		Sample: func(now elasticutor.Time) (elasticutor.Key, int, interface{}) { ... },
//	})
//	count := b.Bolt("count", elasticutor.BoltConfig{
//		Cost:    time.Millisecond,
//		Handler: func(t elasticutor.Tuple, s elasticutor.State) []elasticutor.Tuple { ... },
//	})
//	b.Connect(src, count)
//	report, err := b.Run(elasticutor.Options{
//		Paradigm: elasticutor.Elasticutor,
//		Nodes:    32,
//		Duration: 60 * time.Second,
//	})
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// architecture and the simulation substitutions.
package elasticutor

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/policy"
	runpkg "repro/internal/run"
	rtbackend "repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// Re-exported domain types. Aliases keep the internal packages as the single
// source of truth while giving users one import.
type (
	// Key is a tuple's partitioning key.
	Key = stream.Key
	// Tuple is one unit of data (possibly a weighted batch).
	Tuple = stream.Tuple
	// State is the per-key state accessor handed to bolt handlers; it is
	// valid only during the handler call it was passed to.
	State = stream.StateAccessor
	// Time is a point in virtual time.
	Time = simtime.Time
	// Report is the measurement output of a run: the aggregate Totals block
	// (flat accessors preserved), the PerOperator breakdown, and — for runs
	// observed through a Run handle — the typed event Timeline.
	Report = engine.Report
	// Totals is the aggregate counter block embedded in Report.
	Totals = engine.Totals
	// OperatorStats is one operator's slice of the report.
	OperatorStats = engine.OperatorStats
	// Paradigm selects the execution paradigm.
	Paradigm = engine.Paradigm

	// Run is a live (or finished) run on either backend: Wait for the
	// report, Snapshot for live per-operator metrics, Events for the typed
	// event stream, Inject for mid-run control (see Builder.Start).
	Run = runpkg.Run
	// Event is one typed occurrence in a live run (churn, repartitions,
	// phase transitions, policy invocations).
	Event = engine.Event
	// EventKind classifies an Event.
	EventKind = engine.EventKind
	// Command is one control action injected into a live run (see AddNode,
	// DrainNode, FailNode, SetRate).
	Command = engine.Command
	// Snapshot is a point-in-time view of a live run.
	Snapshot = engine.Snapshot
	// OperatorSnapshot is the live view of one operator inside a Snapshot.
	OperatorSnapshot = engine.OperatorSnapshot

	// Autoscaler is one closed-loop cluster controller: it periodically
	// observes a live run and answers with node additions and drains (see
	// internal/autoscale and Options.Autoscaler).
	Autoscaler = autoscale.Autoscaler
	// AutoscaleConfig tunes an autoscaling session (control interval, node
	// bounds, SLO thresholds).
	AutoscaleConfig = autoscale.Config
	// AutoscaleMetrics is the windowed cluster view a controller decides on.
	AutoscaleMetrics = autoscale.Metrics
	// AutoscaleDecision is a controller's requested node-count change.
	AutoscaleDecision = autoscale.Decision
	// AutoscaleStats is the report's cost/SLO account of an autoscaled run
	// (Report.Autoscale; nil without a controller).
	AutoscaleStats = engine.AutoscaleStats
	// ScaleAction is one applied autoscaling decision inside AutoscaleStats.
	ScaleAction = engine.ScaleAction

	// RepartitionSpan is the per-phase observability record of one completed
	// §3.3 repartition (pause → drain → migrate → reroute); carried on
	// repartition-finish events as Event.Span.
	RepartitionSpan = engine.RepartitionSpan
	// Trace is a decoded run recording: header, typed events, applied
	// commands with provenance, periodic snapshots, and the end record (see
	// internal/obs; Replay rebuilds and re-drives it).
	Trace = obs.Trace
	// TraceHeader is the self-contained metadata record leading a trace; a
	// header with an embedded ScenarioSpec makes the trace replayable.
	TraceHeader = obs.Header
	// TraceRecorder streams a live run into a versioned NDJSON trace.
	TraceRecorder = obs.Recorder
	// RecordOptions tunes a recording (snapshot cadence, per-record flush).
	RecordOptions = obs.RecordOptions
	// ReplayOptions tunes a trace replay (backend / speedup overrides).
	ReplayOptions = obs.ReplayOptions
	// MetricsExporter serves a live run's Prometheus-style /metrics endpoint
	// (optionally with pprof handlers on the same private mux).
	MetricsExporter = obs.Exporter
)

// The event taxonomy of Run.Events and Report.Timeline.
const (
	EventNodeJoin          = engine.EventNodeJoin
	EventNodeDrain         = engine.EventNodeDrain
	EventNodeFail          = engine.EventNodeFail
	EventRepartitionStart  = engine.EventRepartitionStart
	EventRepartitionFinish = engine.EventRepartitionFinish
	EventPhaseStart        = engine.EventPhaseStart
	EventPhaseEnd          = engine.EventPhaseEnd
	EventPhaseSkipped      = engine.EventPhaseSkipped
	EventPolicyInvoked     = engine.EventPolicyInvoked
	EventCommandApplied    = engine.EventCommandApplied
)

// AddNode returns a command that grows the cluster by one node (cores 0 =
// cluster default). Commands are applied at the run's next safe point; use
// Command.AtTime for a deterministic virtual-time schedule (inject before
// the run starts).
func AddNode(cores int) Command { return engine.AddNodeCmd(cores) }

// DrainNode returns a command that removes a node gracefully: executors
// evacuate and their state migrates off — nothing is lost.
func DrainNode(node int) Command { return engine.DrainNodeCmd(node) }

// FailNode returns a command that removes a node hard: its queues and
// resident state are destroyed, with every loss accounted.
func FailNode(node int) Command { return engine.FailNodeCmd(node) }

// SetRate returns a command that scales every spout's offered load by factor
// (1 restores the configured rate).
func SetRate(factor float64) Command { return engine.SetRateCmd(factor) }

// Execution paradigms (paper §2.2, §5).
const (
	Static          = engine.Static
	ResourceCentric = engine.ResourceCentric
	NaiveEC         = engine.NaiveEC
	Elasticutor     = engine.Elasticutor
)

// ElasticityPolicy is the pluggable control-plane strategy interface (see
// internal/policy): placement, routing choice, control loops, scheduling.
type ElasticityPolicy = policy.Policy

// PolicyNames lists the registered elasticity policies ("static", "rc",
// "naive-ec", "elasticutor", plus anything added via RegisterPolicy).
func PolicyNames() []string { return policy.Names() }

// RegisterPolicy makes a custom elasticity policy selectable by name in
// Options.Policy and the CLIs. It panics on duplicate names.
func RegisterPolicy(name string, ctor func() ElasticityPolicy) { policy.Register(name, ctor) }

// Autoscalers lists the registered cluster controllers ("none", "reactive",
// "backlog", "predictive", plus anything added via RegisterAutoscaler).
func Autoscalers() []string { return autoscale.Names() }

// RegisterAutoscaler makes a custom cluster controller selectable by name in
// Options.Autoscaler and the CLI. It panics on duplicate names.
func RegisterAutoscaler(name string, ctor func() Autoscaler) { autoscale.Register(name, ctor) }

// ConstantRate returns a fixed offered-load function (tuples per second).
func ConstantRate(perSec float64) func(Time) float64 {
	return func(Time) float64 { return perSec }
}

// AttachRecorder wires a trace recorder onto a built, unstarted Run: every
// typed event, applied command, and periodic snapshot is encoded to w as it
// happens. Call the recorder's Finish with the report after Wait to append
// the end record. See internal/obs for the trace format.
func AttachRecorder(h *Run, w io.Writer, hdr TraceHeader, opt RecordOptions) *TraceRecorder {
	return obs.Attach(h, w, hdr, opt)
}

// LoadTrace reads and decodes a recorded NDJSON trace from disk.
func LoadTrace(path string) (*Trace, error) { return obs.Load(path) }

// DecodeTrace decodes a recorded NDJSON trace from r.
func DecodeTrace(r io.Reader) (*Trace, error) { return obs.Decode(r) }

// ScenarioTraceHeader assembles the standard self-contained trace header for
// a scenario-built run; backend is BackendSim or BackendRuntime.
func ScenarioTraceHeader(sp *ScenarioSpec, backend, policyName string, seed uint64) TraceHeader {
	return obs.HeaderForScenario(sp, backend, policyName, seed, 0, "", 0)
}

// NewMetricsExporter wraps a run handle in a /metrics exporter.
func NewMetricsExporter(h *Run) *MetricsExporter { return obs.NewExporter(h) }

// ScenarioSpec is the declarative scenario type (phased workload dynamics
// plus timed cluster churn; see internal/scenario for the spec grammar).
type ScenarioSpec = scenario.Spec

// Scenarios lists the built-in scenario names ("flashcrowd", "nodefail", …).
func Scenarios() []string { return scenario.Names() }

// ScenarioByName returns a fresh copy of a built-in scenario spec.
func ScenarioByName(name string) (*ScenarioSpec, error) { return scenario.ByName(name) }

// RunScenario runs a built-in or file-loaded scenario (name or *.json path)
// on the canonical micro-benchmark topology under the named elasticity
// policy. For applying a scenario's dynamics to your own topology, set
// Options.Scenario instead.
func RunScenario(nameOrPath, policyName string, seed uint64) (*Report, error) {
	sp, err := scenario.Resolve(nameOrPath)
	if err != nil {
		return nil, err
	}
	return sp.Run(policyName, seed)
}

// StartScenario launches a built-in or file-loaded scenario (name or *.json
// path) on the canonical micro-benchmark topology and returns its live Run
// handle. Unlike RunScenario it selects an execution backend: Options.Policy
// names the elasticity policy (default "elasticutor"), Options.Backend picks
// BackendSim, BackendRuntime, or BackendDist (Options.Speedup compresses the
// latter two's clocks), Options.Seed seeds the workload, and Options.Autoscaler attaches a
// cluster controller (its session warm-up defaults to the scenario's). Other
// Options fields are the scenario's to decide and are ignored.
func StartScenario(ctx context.Context, nameOrPath string, opt Options) (*Run, error) {
	sp, err := scenario.Resolve(nameOrPath)
	if err != nil {
		return nil, err
	}
	pol := opt.Policy
	if pol == "" {
		pol = "elasticutor"
	}
	var h *Run
	switch opt.Backend {
	case "", BackendSim:
		inst, err := sp.Build(pol, opt.Seed)
		if err != nil {
			return nil, err
		}
		h = inst.Handle
	case BackendRuntime:
		_, hh, err := rtbackend.BuildScenario(sp, pol, opt.Seed,
			rtbackend.ScenarioOptions{Options: rtbackend.Options{Speedup: opt.Speedup}, Batch: opt.Batch})
		if err != nil {
			return nil, err
		}
		h = hh
	case BackendDist:
		_, hh, err := dist.BuildScenario(sp, pol, opt.Seed, dist.ScenarioOptions{
			ScenarioOptions: rtbackend.ScenarioOptions{Options: rtbackend.Options{Speedup: opt.Speedup}, Batch: opt.Batch}})
		if err != nil {
			return nil, err
		}
		h = hh
	default:
		return nil, fmt.Errorf("elasticutor: unknown backend %q (have %v)", opt.Backend, Backends())
	}
	if opt.EventBuffer > 0 {
		h.SetEventBuffer(opt.EventBuffer)
	}
	if err := attachAutoscaler(h, opt.Autoscaler, opt.Autoscale, sp.Warmup()); err != nil {
		return nil, err
	}
	h.Start(ctx)
	return h, nil
}

// SpoutConfig describes a source operator.
type SpoutConfig struct {
	// Rate is the aggregate offered load in tuples/s.
	Rate func(now Time) float64
	// Sample draws the next tuple's key, wire size in bytes, and payload.
	Sample func(now Time) (Key, int, interface{})
}

// BoltConfig describes a processing operator.
type BoltConfig struct {
	// Cost is the CPU time to process one tuple (required).
	Cost time.Duration
	// CostFn optionally replaces Cost with a per-tuple model.
	CostFn func(Tuple) time.Duration
	// Handler is the user logic: read/update per-key state, return emissions.
	Handler func(Tuple, State) []Tuple
	// OutBytes is the default wire size of emitted tuples.
	OutBytes int
	// Selectivity synthesizes outputs-per-input when Handler is nil.
	Selectivity float64
	// StatePerShardKB sizes each shard's resident state (default 32).
	StatePerShardKB int
}

// NodeID identifies an operator in a builder.
type NodeID int

// Builder assembles a topology.
type Builder struct {
	tp      *stream.Topology
	sources map[stream.OperatorID]*engine.SourceDriver
	err     error
}

// NewBuilder returns an empty topology builder.
func NewBuilder(name string) *Builder {
	return &Builder{
		tp:      stream.NewTopology(name),
		sources: make(map[stream.OperatorID]*engine.SourceDriver),
	}
}

// Spout adds a source operator.
func (b *Builder) Spout(name string, cfg SpoutConfig) NodeID {
	op := b.tp.Add(&stream.Operator{Name: name, Source: true})
	if cfg.Rate == nil || cfg.Sample == nil {
		b.err = fmt.Errorf("elasticutor: spout %q needs Rate and Sample", name)
		return NodeID(op.ID)
	}
	b.sources[op.ID] = &engine.SourceDriver{Rate: cfg.Rate, Sample: cfg.Sample}
	return NodeID(op.ID)
}

// Bolt adds a processing operator.
func (b *Builder) Bolt(name string, cfg BoltConfig) NodeID {
	var cost stream.CostModel
	switch {
	case cfg.CostFn != nil:
		cost = stream.CostModel(cfg.CostFn)
	case cfg.Cost > 0:
		cost = stream.FixedCost(cfg.Cost)
	default:
		b.err = fmt.Errorf("elasticutor: bolt %q needs Cost or CostFn", name)
	}
	stateKB := cfg.StatePerShardKB
	if stateKB == 0 {
		stateKB = 32
	}
	op := b.tp.Add(&stream.Operator{
		Name:          name,
		Cost:          cost,
		Handler:       stream.Handler(cfg.Handler),
		OutBytes:      cfg.OutBytes,
		Selectivity:   cfg.Selectivity,
		StatePerShard: stateKB << 10,
	})
	return NodeID(op.ID)
}

// Connect declares a stream from one operator to another.
func (b *Builder) Connect(from, to NodeID) {
	b.tp.Connect(stream.OperatorID(from), stream.OperatorID(to))
}

// Backends. The simulator is the deterministic default; the runtime backend
// executes the same topology and policy on real goroutines, channels, and
// the wall clock (see internal/runtime); the dist backend keeps the runtime
// control-plane in this process but runs every node's executor work in
// per-node agent OS processes reached over TCP (see internal/dist). A binary
// using BackendDist must call MainIfAgent at the top of main so self-spawned
// agents can re-enter it.
const (
	BackendSim     = "sim"
	BackendRuntime = "runtime"
	BackendDist    = "dist"
)

// Backends lists the selectable execution backends.
func Backends() []string { return []string{BackendSim, BackendRuntime, BackendDist} }

// MainIfAgent hijacks the process when it was spawned as a distributed-run
// agent (BackendDist re-executes the host binary per node) and never returns
// in that case. Call it first thing in main of any binary that starts
// BackendDist runs.
func MainIfAgent() { dist.MainIfAgent() }

// Options configures a run. Zero values take the paper's defaults.
type Options struct {
	Paradigm Paradigm
	// Policy selects the elasticity control plane by registry name
	// ("static", "rc", "naive-ec", "elasticutor", or anything registered
	// via RegisterPolicy). When set it overrides Paradigm.
	Policy          string
	Nodes           int // cluster nodes, 8 cores / 1 Gbps each (default 32)
	SourceExecutors int // parallelism of each spout (default one per node)

	Y        int // executors per bolt (default 32)
	Z        int // shards per elastic executor (default 256)
	OpShards int // operator-level shards for the RC baseline (default 8192)

	Duration time.Duration // virtual time to simulate (required)
	WarmUp   time.Duration // excluded from reported metrics

	Tmax  time.Duration // scheduler latency target (default 50 ms)
	Theta float64       // imbalance threshold θ (default 1.2)
	Phi   float64       // data-intensity threshold φ̃ in bytes/s (default 512 KiB/s)

	Batch       int // tuples represented per simulated event (default 1)
	Seed        uint64
	AssertOrder bool // panic on any per-key order violation (testing)

	// EventBuffer sizes the Run's Events channel (default 4096). Emission
	// never blocks: a slow consumer drops events beyond the buffer
	// (Run.LostEvents counts them; Report.Timeline is always complete).
	EventBuffer int

	// Backend selects the execution backend: BackendSim (default, the
	// deterministic discrete-event simulator), BackendRuntime (goroutine
	// executors on the wall clock; not deterministic, AssertOrder and
	// BeforeRun do not apply), or BackendDist (the runtime control-plane
	// with per-node agent processes over TCP; main must call MainIfAgent).
	Backend string
	// Speedup compresses the runtime backend's clock by this factor (20 =
	// a 20 s run finishes in 1 s of wall time). Ignored by the simulator.
	Speedup float64

	// Scenario applies a named built-in (see Scenarios) or *.json scenario
	// to this run: its rate phases multiply every spout's offered load and
	// its cluster events (node join/drain/fail) are scheduled on the clock.
	// Key-space phases (skew drift, hotspot, key churn) need the scenario's
	// own sampler and cannot run on a user topology: each is announced as a
	// typed PhaseSkipped event on the run's timeline (or rejected up front
	// under Strict) — run those through RunScenario/StartScenario. When
	// Nodes is 0 the scenario's cluster size applies, and when Duration is 0
	// the scenario's duration applies; an explicitly shorter Duration that
	// would silently skip scheduled cluster events is rejected.
	Scenario string

	// Autoscaler attaches a closed-loop cluster controller by registry name
	// ("none", "reactive", "backlog", "predictive", or anything registered
	// via RegisterAutoscaler): the run's cluster is resized live through
	// AddNode/DrainNode commands, and the report gains an Autoscale section
	// (node-seconds, actions, SLO-violation time). On the sim backend the
	// control loop samples at fixed virtual times, so autoscaled runs stay
	// deterministic; on the runtime backend it runs on the scaled wall
	// clock. Empty = no controller.
	Autoscaler string
	// Autoscale optionally tunes the controller session (interval, node
	// bounds, SLO thresholds). Nil takes the defaults. The session's
	// warm-up defaults to this run's WarmUp when left zero; set Warmup
	// negative to force cold-start decisions (an explicit no-warm-up).
	Autoscale *AutoscaleConfig

	// Strict rejects configurations that would otherwise degrade with only
	// a timeline notice — currently: a Scenario whose key-space phases
	// cannot run on this topology.
	Strict bool

	// BeforeRun, when set, is called with the constructed engine before the
	// simulation starts — the hook for scheduling workload dynamics such as
	// key shuffles (engine.Every) or forced protocol invocations.
	BeforeRun func(*engine.Engine)
}

// Run validates the topology, builds the selected backend, and runs it for
// Options.Duration of virtual time (the scenario's duration when a scenario
// is set and Duration is 0). It is the blocking convenience form of Start.
func (b *Builder) Run(opt Options) (*Report, error) {
	h, err := b.Start(context.Background(), opt)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// Start validates the topology, builds the selected backend, and launches
// the run, returning immediately with a live Run handle on both backends:
//
//	h, err := b.Start(ctx, opt)
//	for ev := range h.Events() { ... }   // typed event stream
//	snap := h.Snapshot()                 // live per-operator metrics
//	h.Inject(elasticutor.DrainNode(3))   // applied at the next safe point
//	report, err := h.Wait()
//
// Cancelling ctx stops the run early at a safe point; Wait then returns the
// partial report (with the context's error) and the backend's conservation
// invariants still hold. See DESIGN.md "Run handle" for safe-point and
// determinism semantics.
func (b *Builder) Start(ctx context.Context, opt Options) (*Run, error) {
	var h *Run
	var err error
	switch opt.Backend {
	case "", BackendSim:
		h, _, err = b.simRun(opt)
	case BackendRuntime:
		h, err = b.runtimeRun(opt)
	case BackendDist:
		h, err = b.distRun(opt)
	default:
		return nil, fmt.Errorf("elasticutor: unknown backend %q (have %v)", opt.Backend, Backends())
	}
	if err != nil {
		return nil, err
	}
	if opt.EventBuffer > 0 {
		h.SetEventBuffer(opt.EventBuffer)
	}
	if err := attachAutoscaler(h, opt.Autoscaler, opt.Autoscale, simtime.Duration(opt.WarmUp)); err != nil {
		return nil, err
	}
	h.Start(ctx)
	return h, nil
}

// attachAutoscaler wires the named cluster controller onto a built,
// unstarted run handle. The session's warm-up defaults to the run's when
// left zero; a negative Warmup is the explicit no-warm-up form.
func attachAutoscaler(h *Run, name string, cfg *AutoscaleConfig, warmup simtime.Duration) error {
	if name == "" {
		return nil
	}
	a, err := autoscale.ByName(name)
	if err != nil {
		return err
	}
	c := AutoscaleConfig{}
	if cfg != nil {
		c = *cfg
	}
	switch {
	case c.Warmup == 0:
		c.Warmup = warmup
	case c.Warmup < 0:
		c.Warmup = 0
	}
	autoscale.Attach(h, a, c)
	return nil
}

// simRun assembles a wired, unstarted simulator run.
func (b *Builder) simRun(opt Options) (*Run, *engine.Engine, error) {
	cfg, sp, duration, err := b.config(opt)
	if err != nil {
		return nil, nil, err
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	h := runpkg.NewSim(e, duration)
	if sp != nil {
		// Cluster events as injected commands, phase transitions as timeline
		// markers (rate phases are already wrapped into the sources; key
		// phases need the scenario's own sampler and announce PhaseSkipped).
		scenario.Drive(h, sp, nil, 0)
	}
	if opt.BeforeRun != nil {
		opt.BeforeRun(e)
	}
	return h, e, nil
}

// runtimeRun assembles a wired, unstarted real-time run. The scenario's rate
// phases are already folded into the sources by config(); its cluster events
// are injected on the wall clock through the same handle contract.
func (b *Builder) runtimeRun(opt Options) (*Run, error) {
	if opt.BeforeRun != nil {
		return nil, fmt.Errorf("elasticutor: BeforeRun requires the sim backend (it schedules on the virtual clock)")
	}
	cfg, sp, duration, err := b.config(opt)
	if err != nil {
		return nil, err
	}
	rt, err := rtbackend.New(cfg, rtbackend.Options{Speedup: opt.Speedup})
	if err != nil {
		return nil, err
	}
	h := runpkg.NewRuntime(rt, duration)
	if sp != nil {
		scenario.Drive(h, sp, nil, 0)
	}
	return h, nil
}

// distRun assembles a wired, unstarted distributed run: the same control
// plane as runtimeRun, with per-node agent processes (self-spawned through
// MainIfAgent) carrying the executor work over loopback TCP.
func (b *Builder) distRun(opt Options) (*Run, error) {
	if opt.BeforeRun != nil {
		return nil, fmt.Errorf("elasticutor: BeforeRun requires the sim backend (it schedules on the virtual clock)")
	}
	cfg, sp, duration, err := b.config(opt)
	if err != nil {
		return nil, err
	}
	d, err := dist.New(cfg, rtbackend.Options{Speedup: opt.Speedup}, dist.Options{})
	if err != nil {
		return nil, err
	}
	h := runpkg.NewRuntime(d, duration)
	h.OnFinish(func(*engine.Report) { d.C.Close() })
	if sp != nil {
		scenario.Drive(h, sp, nil, 0)
	}
	return h, nil
}

// Engine builds the simulator engine without running it (for callers that
// need to schedule events against the virtual clock first). Scenario events,
// when configured, are already wired.
func (b *Builder) Engine(opt Options) (*engine.Engine, error) {
	_, e, err := b.simRun(opt)
	return e, err
}

// config resolves Options into the backend-independent engine configuration
// plus the resolved scenario (nil without one) and the run duration.
func (b *Builder) config(opt Options) (engine.Config, *scenario.Spec, time.Duration, error) {
	if b.err != nil {
		return engine.Config{}, nil, 0, b.err
	}
	var sp *scenario.Spec
	if opt.Scenario != "" {
		var err error
		if sp, err = scenario.Resolve(opt.Scenario); err != nil {
			return engine.Config{}, nil, 0, err
		}
	}
	duration := opt.Duration
	if duration == 0 && sp != nil {
		duration = sp.Duration()
	}
	if duration <= 0 {
		return engine.Config{}, nil, 0, fmt.Errorf("elasticutor: Options.Duration is required")
	}
	if sp != nil {
		for i, ev := range sp.Events {
			if at := simtime.FromSeconds(ev.AtSec); at > duration {
				return engine.Config{}, nil, 0, fmt.Errorf("elasticutor: scenario %q event %d (%s at %.1fs) is beyond the %v run duration",
					sp.Name, i, ev.Kind, ev.AtSec, duration)
			}
		}
	}
	nodes := opt.Nodes
	if nodes == 0 && sp != nil && sp.Nodes > 0 {
		nodes = sp.Nodes
	}
	if nodes == 0 {
		nodes = 32
	}
	if sp != nil && nodes != sp.Nodes {
		// The event timeline was validated against the scenario's own
		// cluster size; re-check it against the size this run actually uses.
		clone := *sp
		clone.Nodes = nodes
		if err := clone.Validate(); err != nil {
			return engine.Config{}, nil, 0, err
		}
	}
	if sp != nil && opt.Strict {
		if kinds := sp.KeyPhaseKinds(); len(kinds) > 0 {
			return engine.Config{}, nil, 0, fmt.Errorf(
				"elasticutor: scenario %q key-space phases %v cannot run on a user topology (Options.Strict); use RunScenario or StartScenario",
				sp.Name, kinds)
		}
	}
	srcEx := opt.SourceExecutors
	if srcEx == 0 {
		srcEx = nodes
	}
	var pol policy.Policy
	if opt.Policy != "" {
		p, err := policy.ByName(opt.Policy)
		if err != nil {
			return engine.Config{}, nil, 0, err
		}
		pol = p
	}
	sources := b.sources
	if sp != nil {
		// Wrap every spout's offered load with the scenario's phased
		// multiplier, on a copy so the builder stays reusable.
		mult := sp.RateMultiplier()
		sources = make(map[stream.OperatorID]*engine.SourceDriver, len(b.sources))
		for id, drv := range b.sources {
			base := drv.Rate
			sources[id] = &engine.SourceDriver{
				Rate:   func(now simtime.Time) float64 { return base(now) * mult(now) },
				Sample: drv.Sample,
			}
		}
	}
	cfg := engine.Config{
		Topology:        b.tp,
		Cluster:         cluster.Default(nodes),
		Paradigm:        opt.Paradigm,
		Policy:          pol,
		Sources:         sources,
		SourceExecutors: srcEx,
		Y:               opt.Y,
		Z:               opt.Z,
		OpShards:        opt.OpShards,
		Theta:           opt.Theta,
		Phi:             opt.Phi,
		Tmax:            opt.Tmax,
		Batch:           opt.Batch,
		Seed:            opt.Seed,
		AssertOrder:     opt.AssertOrder,
		WarmUp:          opt.WarmUp,
	}
	return cfg, sp, duration, nil
}

// Trials runs n independent replicate simulations concurrently and returns
// the reports in trial order. build is called once per trial with that
// trial's seed and must construct everything the run touches (builder,
// closures, samplers) from scratch — engines share nothing, which is what
// makes the results deterministic for any worker count (workers ≤ 0 uses
// the process default). Trial 0 runs with baseSeed verbatim; later trials
// use seeds forked deterministically from it.
func Trials(n, workers int, baseSeed uint64, build func(seed uint64) (*Builder, Options)) ([]*Report, error) {
	if n <= 0 {
		return nil, fmt.Errorf("elasticutor: Trials needs n > 0")
	}
	runner := &harness.Runner{Workers: workers, Seed: baseSeed}
	return harness.Map(runner, make([]struct{}, n),
		func(ctx *harness.Ctx, _ struct{}) (*Report, error) {
			seed := baseSeed
			if ctx.Index > 0 {
				seed = ctx.Rand.Uint64()
			}
			b, opt := build(seed)
			opt.Seed = seed
			return b.Run(opt)
		})
}
