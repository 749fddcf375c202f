package engine

import (
	"fmt"

	clusterpkg "repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simtime"
)

// This file is the run-observation and run-control vocabulary shared by both
// execution backends: the typed event stream a live run emits, the command
// surface a caller can inject into it, and the point-in-time snapshot of the
// dataflow. The Run handle (internal/run) carries these types to the public
// facade; the simulator applies commands at safe points of its virtual clock,
// the real-time backend on its control goroutine.

// EventKind classifies one run event.
type EventKind int

// The event taxonomy (see DESIGN.md "Run handle"). Structural events —
// churn and phase transitions — are the backend-conformance currency: the
// same (workload, policy, scenario) must produce the same kinds and counts
// on the simulator and the real-time backend.
const (
	// EventNodeJoin, EventNodeDrain, EventNodeFail are completed cluster
	// capacity changes (Node carries the node ID, Cores the size of a join).
	EventNodeJoin EventKind = iota
	EventNodeDrain
	EventNodeFail
	// EventRepartitionStart/Finish bracket one operator-level (RC) global
	// repartitioning; Operator names the repartitioned operator.
	EventRepartitionStart
	EventRepartitionFinish
	// EventPhaseStart/End bracket one scenario phase (Phase carries the
	// phase kind, e.g. "flashcrowd").
	EventPhaseStart
	EventPhaseEnd
	// EventPhaseSkipped marks a scenario key-space phase that could not run
	// because the topology supplies its own sampler (see Options.Strict).
	EventPhaseSkipped
	// EventPolicyInvoked is one dynamic scheduling decision (model +
	// Algorithm 1) by the installed elasticity policy.
	EventPolicyInvoked
	// EventCommandApplied reports an injected command that was applied at a
	// safe point (Detail names the command; a refused command lands in
	// Report.ChurnErrors instead).
	EventCommandApplied
)

func (k EventKind) String() string {
	switch k {
	case EventNodeJoin:
		return "node-join"
	case EventNodeDrain:
		return "node-drain"
	case EventNodeFail:
		return "node-fail"
	case EventRepartitionStart:
		return "repartition-start"
	case EventRepartitionFinish:
		return "repartition-finish"
	case EventPhaseStart:
		return "phase-start"
	case EventPhaseEnd:
		return "phase-end"
	case EventPhaseSkipped:
		return "phase-skipped"
	case EventPolicyInvoked:
		return "policy-invoked"
	case EventCommandApplied:
		return "command-applied"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one typed occurrence in a live run.
type Event struct {
	Kind     EventKind
	At       simtime.Time // virtual time of the occurrence
	Node     int          // churn events: the node involved (else -1)
	Cores    int          // node-join: cores added
	Operator string       // repartition events: the operator
	Phase    string       // phase events: the phase kind
	Detail   string       // free-form context (policy name, command, skip reason)
	// Span carries the per-phase breakdown of a completed §3.3 repartition
	// cycle; non-nil only on EventRepartitionFinish. It is observation-only
	// payload: String() and the structural conformance projection ignore it.
	Span *RepartitionSpan
}

// RepartitionSpan is the observability record of one completed §3.3 global
// repartition: pause → drain → migrate → reroute, with per-phase durations
// that tile Start..Start+Total exactly (non-overlapping by construction on
// both backends). Replayed/ReplayedW count the tuples buffered during the
// pause and re-driven after the routing commit; summed over a run's spans,
// ReplayedW equals Totals.RepartitionReplayed — the conservation cross-check.
type RepartitionSpan struct {
	Operator string
	Start    simtime.Time // virtual time the protocol began (pause issued)
	// Phase durations, in protocol order. Pause is the upstream
	// synchronization cost before intake actually stops; Drain empties the
	// in-flight queues; Migrate moves shard state (serialization + wire);
	// Reroute updates upstream routing tables and resumes the stream.
	Pause   simtime.Duration
	Drain   simtime.Duration
	Migrate simtime.Duration
	Reroute simtime.Duration
	// Moves is the number of shard reassignments committed (InterMoves of
	// them across nodes); Bytes the state moved.
	Moves      int
	InterMoves int
	Bytes      int64
	// Replayed counts buffered tuple batches re-driven after the commit;
	// ReplayedW their total tuple weight.
	Replayed  int
	ReplayedW int64
	// Aborted marks a runtime-backend protocol overtaken by cluster churn:
	// the routing commit was abandoned (no state moved) but the pause, drain,
	// and replay were still paid.
	Aborted bool
}

// Total is the pause-to-resume duration — the sum of the four phases.
func (s *RepartitionSpan) Total() simtime.Duration {
	return s.Pause + s.Drain + s.Migrate + s.Reroute
}

func (ev Event) String() string {
	s := fmt.Sprintf("%v %s", ev.At, ev.Kind)
	if ev.Kind == EventNodeJoin || ev.Kind == EventNodeDrain || ev.Kind == EventNodeFail {
		s += fmt.Sprintf(" node=%d", ev.Node)
	}
	if ev.Operator != "" {
		s += " op=" + ev.Operator
	}
	if ev.Phase != "" {
		s += " phase=" + ev.Phase
	}
	if ev.Detail != "" {
		s += " (" + ev.Detail + ")"
	}
	return s
}

// CommandKind classifies one injected control command.
type CommandKind int

// The control surface a live run accepts.
const (
	CmdAddNode CommandKind = iota
	CmdDrainNode
	CmdFailNode
	CmdSetRate
)

func (k CommandKind) String() string {
	switch k {
	case CmdAddNode:
		return "add-node"
	case CmdDrainNode:
		return "drain-node"
	case CmdFailNode:
		return "fail-node"
	case CmdSetRate:
		return "set-rate"
	}
	return fmt.Sprintf("command(%d)", int(k))
}

// Command is one control action injected into a live run. Zero At applies
// the command at the next safe point; a positive At schedules it at that
// virtual offset from run start (the deterministic form — see DESIGN.md for
// the command-ordering rules on the virtual clock).
type Command struct {
	Kind   CommandKind
	Node   int     // drain/fail: the node to remove
	Cores  int     // add: cores on the new node (0 = cluster default)
	Factor float64 // set-rate: multiplier over the configured offered load
	At     simtime.Duration
	// Label prefixes any refusal recorded in Report.ChurnErrors (the
	// scenario interpreter uses it to keep its historical error texts).
	Label string
	// Origin tags who issued the command — "scenario" (spec-scheduled churn),
	// "controller" (an attached autoscaler), "replay" (re-injected by the
	// trace replayer), or "" for direct user injections. Observation-only:
	// the backends ignore it; the trace recorder persists it so the replayer
	// can tell spec-regenerated commands from ones it must re-drive.
	Origin string
}

func (c Command) String() string {
	switch c.Kind {
	case CmdAddNode:
		return fmt.Sprintf("add-node cores=%d", c.Cores)
	case CmdDrainNode:
		return fmt.Sprintf("drain-node node=%d", c.Node)
	case CmdFailNode:
		return fmt.Sprintf("fail-node node=%d", c.Node)
	case CmdSetRate:
		return fmt.Sprintf("set-rate factor=%g", c.Factor)
	}
	return c.Kind.String()
}

// AtTime returns a copy of the command pinned to a virtual time.
func (c Command) AtTime(at simtime.Duration) Command { c.At = at; return c }

// AddNodeCmd grows the cluster by one node (cores 0 = cluster default).
func AddNodeCmd(cores int) Command { return Command{Kind: CmdAddNode, Cores: cores} }

// DrainNodeCmd removes a node gracefully (state migrates off).
func DrainNodeCmd(node int) Command { return Command{Kind: CmdDrainNode, Node: node} }

// FailNodeCmd removes a node hard (its state and queues are lost).
func FailNodeCmd(node int) Command { return Command{Kind: CmdFailNode, Node: node} }

// SetRateCmd scales every source's offered load by factor (1 restores the
// configured rate).
func SetRateCmd(factor float64) Command { return Command{Kind: CmdSetRate, Factor: factor} }

// Snapshot is a point-in-time view of a live run.
//
// The rate fields (OperatorSnapshot.OfferedRate/ProcessedRate) are windowed
// over the span since the *previous* snapshot by any observer, so they are
// observer-relative. Closed-loop controllers must derive their windows from
// the cumulative fields instead (Blocked, OperatorSnapshot.Offered/Processed)
// — those are independent of who else is watching, which is what keeps an
// autoscaled simulator run deterministic under -live observation.
type Snapshot struct {
	Now       simtime.Time
	LiveNodes int
	// Nodes lists the live node IDs in ascending order (drain-target
	// selection for cluster controllers).
	Nodes []int
	// TotalCores counts the cores on live nodes; UsedCores the ones
	// currently allocated (source reservations plus executor grants);
	// Utilization is their ratio (0 when the cluster has no cores).
	TotalCores  int
	UsedCores   int
	Utilization float64
	// Blocked is the cumulative tuple weight refused by source backpressure
	// since run start (not warm-up gated): the demand the cluster failed to
	// admit.
	Blocked int64
	// Operators lists the non-source operators in topology order.
	Operators []OperatorSnapshot
	// Cumulative elasticity counters at snapshot time.
	MigrationBytes int64
	Reassignments  int64
	Repartitions   int

	// Latency anatomy of the last *folded* metrics window (end-to-end, at
	// sinks): windowed percentiles plus the dominant stage of that window.
	// Folds happen at fixed 1-second virtual ticks regardless of observers,
	// so these fields are observer-independent — safe inputs for a
	// closed-loop latency-SLO controller. LatencyWeight is the window's
	// weighted sample count (0 = no samples, percentiles are zeros).
	LatencyP50    simtime.Duration
	LatencyP95    simtime.Duration
	LatencyP99    simtime.Duration
	LatencyMax    simtime.Duration
	LatencyWeight uint64
	DominantStage metrics.Stage
	DominantShare float64

	// Distributed-plane telemetry (agentplane.go): populated only when the
	// run executes on the distributed backend, ordered by node (RPC
	// additionally by message type). Wall-clock durations — see the file
	// comment in agentplane.go.
	RPC    []RPCWindow
	Agents []AgentHealth
}

// OperatorSnapshot is the live view of one operator. Rates are measured over
// the window since the previous snapshot (since run start for the first).
type OperatorSnapshot struct {
	Name      string
	Executors int
	// FirstHop marks operators directly downstream of a source — the
	// admission boundary whose Offered counter is the source-level demand.
	FirstHop bool
	// Cores is the number of CPU cores currently allocated to the
	// operator's executors.
	Cores int
	// OfferedRate is tuples/s admitted toward the operator in the window;
	// ProcessedRate is tuples/s completed by its executors.
	OfferedRate   float64
	ProcessedRate float64
	// Offered and Processed are the cumulative tuple weights since run
	// start — the observer-independent counters the rate fields derive
	// from (see the Snapshot doc comment).
	Offered   int64
	Processed int64
	// Queued is the tuple weight admitted but not yet processed (network
	// transit plus executor queues).
	Queued int
	// LatP50/LatP99 are the hop-latency percentiles (admission toward the
	// operator to processed by it) of the last non-empty anatomy window;
	// DominantStage/DominantShare name the stage with the largest cumulative
	// attributed time at this operator.
	LatP50        simtime.Duration
	LatP99        simtime.Duration
	DominantStage metrics.Stage
	DominantShare float64
}

// dominantStage returns the stage with the largest total and its share, with
// the same tie/empty semantics as metrics.StageSet.Dominant.
func dominantStage(totals [metrics.NumStages]simtime.Duration) (metrics.Stage, float64) {
	return metrics.DominantOf(totals)
}

// SetOnEvent installs the run-event observer (the Run handle). Must be set
// before the run starts; nil disables emission.
func (e *Engine) SetOnEvent(fn func(Event)) { e.onEvent = fn }

func (e *Engine) emit(ev Event) {
	if e.onEvent != nil {
		e.onEvent(ev)
	}
}

// SetRateFactor scales every source's offered load by f (the CmdSetRate
// mechanism). Applied multiplicatively on top of the drivers' own rate
// functions; f <= 0 silences the sources.
func (e *Engine) SetRateFactor(f float64) {
	if f < 0 {
		f = 0
	}
	e.rateFactor = f
}

// Apply executes one control command at the current virtual time. It is the
// single entry point the Run handle uses at safe points; the returned error
// reports a refused command (infeasible churn), which the caller records in
// Report.ChurnErrors.
func (e *Engine) Apply(c Command) error {
	switch c.Kind {
	case CmdAddNode:
		e.AddNode(c.Cores)
		return nil
	case CmdDrainNode:
		return e.DrainNode(clusterpkg.NodeID(c.Node))
	case CmdFailNode:
		return e.FailNode(clusterpkg.NodeID(c.Node))
	case CmdSetRate:
		e.SetRateFactor(c.Factor)
		return nil
	}
	return fmt.Errorf("engine: unknown command kind %d", int(c.Kind))
}

// Snapshot reports the live per-operator state. Single-threaded like every
// engine method: the Run handle serves it at safe points only.
func (e *Engine) Snapshot() Snapshot {
	now := e.clock.Now()
	span := now.Sub(e.lastSnapAt).Seconds()
	s := Snapshot{
		Now:            now,
		LiveNodes:      e.cluster.AliveNodes(),
		Blocked:        e.r.Blocked,
		MigrationBytes: e.r.RepartitionBytes,
		Repartitions:   e.r.Repartitions,
		LatencyP50:     e.r.lastWindow.P50,
		LatencyP95:     e.r.lastWindow.P95,
		LatencyP99:     e.r.lastWindow.P99,
		LatencyMax:     e.r.lastWindow.Max,
		LatencyWeight:  e.r.lastWindow.Weight,
	}
	s.DominantStage, s.DominantShare = e.r.lastStages.Dominant()
	free := 0
	for n := 0; n < e.cluster.Nodes(); n++ {
		id := clusterpkg.NodeID(n)
		if !e.cluster.NodeAlive(id) {
			continue
		}
		s.Nodes = append(s.Nodes, n)
		free += len(e.freeCores[id])
	}
	s.TotalCores = e.cluster.TotalCores()
	s.UsedCores = s.TotalCores - free
	if s.TotalCores > 0 {
		s.Utilization = float64(s.UsedCores) / float64(s.TotalCores)
	}
	for _, rt := range e.opOrder {
		os := OperatorSnapshot{
			Name:      rt.op.Name,
			Executors: len(rt.execs),
			FirstHop:  rt.firstHop,
			Offered:   rt.offeredW,
			Processed: rt.processedW,
			LatP50:    rt.lastHopP50,
			LatP99:    rt.lastHopP99,
		}
		os.DominantStage, os.DominantShare = dominantStage(rt.anatTotals)
		for i, ex := range rt.execs {
			os.Queued += e.inflight[ex]
			os.Cores += len(rt.cores[i])
		}
		if span > 0 {
			os.OfferedRate = float64(rt.offeredW-rt.lastOffered) / span
			os.ProcessedRate = float64(rt.processedW-rt.lastProcessed) / span
		}
		rt.lastOffered, rt.lastProcessed = rt.offeredW, rt.processedW
		s.Operators = append(s.Operators, os)
	}
	for _, ex := range e.elastic {
		s.MigrationBytes += ex.Stats.MigrationBytes
		s.Reassignments += ex.Stats.Reassignments
	}
	for _, ex := range e.retired {
		s.MigrationBytes += ex.Stats.MigrationBytes
		s.Reassignments += ex.Stats.Reassignments
	}
	e.lastSnapAt = now
	return s
}
