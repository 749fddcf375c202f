// Package executor implements the elastic executor of paper §3: a
// lightweight, self-contained distributed subsystem that owns a fixed key
// subspace, splits it into shards, and processes tuples with one task per
// allocated CPU core — locally or on remote nodes — behind a single
// receiver/emitter pair on its local ("main process") node.
//
// The three mechanisms the paper describes are all here:
//
//   - the two-tier routing table (static key→shard hash, dynamic shard→task
//     map, §3.2);
//   - intra-process state sharing (per-node stores; same-node shard moves
//     migrate nothing, §3.2);
//   - the consistent shard reassignment protocol (pause shard routing →
//     labeling tuple drains the source task → migrate state across processes
//     if needed → update routing → replay buffered tuples, §3.3).
//
// The executor is paradigm-agnostic: the engine instantiates it with many
// shards and a dynamic task set for Elasticutor, with a single pinned task
// for the static and resource-centric baselines.
package executor

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/state"
	"repro/internal/stream"
)

// TaskID identifies a task within one executor.
type TaskID int

// Env is the slice of the simulated world an executor needs: virtual time
// and the cluster network. The engine implements it.
type Env interface {
	Clock() *simtime.Clock
	NodeOf(core cluster.CoreID) cluster.NodeID
	// Send models a network transfer and calls done on delivery. Same-node
	// sends complete immediately (via a zero-delay event).
	Send(from, to cluster.NodeID, bytes int, done func())
}

// Config describes one executor.
type Config struct {
	Name      string
	LocalNode cluster.NodeID

	// ShardOf maps a key to its shard. Elasticutor uses Key.Shard(z); the
	// resource-centric baseline uses operator-level shards.
	ShardOf func(stream.Key) state.ShardID

	Cost        stream.CostModel
	Handler     stream.Handler
	OutBytes    int     // default size of emitted tuples
	Selectivity float64 // outputs per input when Handler is nil

	StateBytesPerShard int // nominal shard state size (migration cost)

	Theta       float64 // imbalance threshold θ for Rebalance (default 1.2)
	MaxInFlight int     // backpressure cap in tuple-weight units (0 = unbounded)

	// ControlDelay is the local control-plane cost of a shard reassignment
	// (routing-table pause/update bookkeeping). Paper Fig 8 measures ~2–3 ms
	// of intra-executor synchronization; 1 ms of control plus the actual
	// label-drain reproduces that.
	ControlDelay simtime.Duration
	// SerializeOverhead is the fixed serialization cost added to a cross-node
	// state migration on top of wire time (Fig 8: ~4 ms at 32 KB).
	SerializeOverhead simtime.Duration

	// AssertOrder enables per-key order checking (tests and paranoia runs).
	AssertOrder bool

	// DisableStateSharing turns off the intra-process state sharing of §3.2
	// (ablation): every shard reassignment then pays serialization and a
	// state copy even between tasks of the same process, as in systems where
	// each task owns a private state structure.
	DisableStateSharing bool
}

// ReassignReport describes one completed shard reassignment (Fig 8 data).
type ReassignReport struct {
	Shard         state.ShardID
	InterNode     bool
	SyncTime      simtime.Duration // initiation → label drained at source task
	MigrationTime simtime.Duration // state extract → installed at destination
	TotalTime     simtime.Duration
	MovedBytes    int
}

// Stats are cumulative executor counters.
type Stats struct {
	ReceivedTuples      int64 // weight units
	ProcessedTuples     int64
	DroppedTuples       int64 // rejected by backpressure
	InBytes             int64
	OutBytes            int64
	RemoteTransferBytes int64 // receiver/emitter ↔ remote task traffic
	MigrationBytes      int64 // state moved across nodes
	Reassignments       int64
	IntraNodeReassigns  int64
	InterNodeReassigns  int64
	SyncTimeTotal       simtime.Duration
	MigrationTimeTotal  simtime.Duration
}

// queued is one entry in a task's pending queue: either a data tuple or the
// labeling control tuple of an in-progress shard reassignment.
type queued struct {
	tuple      stream.Tuple
	shard      state.ShardID
	arrivalSeq uint64
	label      *reassign // non-nil for labeling tuples
	// bufAt stamps when the item entered a shard-pause buffer, so the replay
	// can attribute the stall to the tuple's migration stage.
	bufAt simtime.Time
}

// taskQueue is a task's pending FIFO: a ring that grows by doubling and is
// indexed from head, so a queue in steady state reuses its buffer instead of
// sliding through freshly grown ones.
type taskQueue struct {
	buf  []queued // len is zero or a power of two
	head int
	n    int
}

func (q *taskQueue) len() int { return q.n }

func (q *taskQueue) push(x queued) {
	if q.n == len(q.buf) {
		grown := make([]queued, max(8, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// pop removes the oldest item. The vacated slot is zeroed: a drained queue
// must not keep a payload or a finished reassignment reachable.
func (q *taskQueue) pop() queued {
	x := q.buf[q.head]
	q.buf[q.head] = queued{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}

type task struct {
	ex      *Executor
	id      TaskID
	core    cluster.CoreID
	node    cluster.NodeID
	queue   taskQueue
	busy    bool
	removed bool
	// serving is the batch in service while busy. A task serves one batch at
	// a time, so the task is the clock event of its own service completion
	// (Fire) and starting a batch allocates nothing.
	serving queued
	// failed marks a task destroyed by a node failure: unlike removed (a
	// graceful drain through the reassignment protocol), a failed task loses
	// its queue and never processes again. Tuples still in flight toward it
	// are dropped on arrival.
	failed bool
	// pendingReassigns counts reassignments with this task as source or
	// destination; a task is only destroyed when it reaches zero.
	pendingReassigns int
	queuedWeight     int
	busyWeight       int              // tuple weight of the batch in service
	busyTime         simtime.Duration // cumulative processing time
}

// reassign tracks one in-flight shard reassignment.
type reassign struct {
	shard    state.ShardID
	src, dst TaskID
	started  simtime.Time
	drained  simtime.Time
	buffered []queued // tuples arriving while the shard is paused
	onDone   func(ReassignReport)
	// aborted short-circuits every remaining protocol step after a node
	// failure killed the source or destination task (or the main process).
	aborted bool
}

// Executor is one elastic executor.
type Executor struct {
	cfg Config
	env Env

	tasks    []*task // indexed by TaskID; nil when destroyed
	live     int
	routing  map[state.ShardID]TaskID
	stores   map[cluster.NodeID]*state.Store
	pausedBy map[state.ShardID]*reassign

	inFlight int // weight units received but not yet processed

	freeTransits *transit // free list of remote-dispatch records (dispatch)

	// Window measurement state (reset by TakeWindow).
	winArrived   int64
	winProcessed int64
	winBusy      simtime.Duration
	winInBytes   int64
	winOutBytes  int64
	winShardLoad map[state.ShardID]float64
	winStart     simtime.Time

	// Latency-anatomy window state (reset by TakeAnatomy, on the metrics
	// window tick — a different cadence from TakeWindow, which belongs to the
	// scheduler's measurement loop).
	anatHop     *metrics.Histogram // source-to-processed hop latency (Mark-based)
	anatSvc     simtime.Duration   // Σ service duration × weight this window
	anatMGStall simtime.Duration   // Σ shard-pause stall × weight this window

	// Per-key order bookkeeping (AssertOrder).
	arrivalSeq   map[stream.Key]uint64
	processedSeq map[stream.Key]uint64

	// OnOutput receives tuples the executor emits downstream; the engine
	// routes them. Called on the local node (the emitter daemon).
	OnOutput func(ts []stream.Tuple)
	// OnLatency observes the source-to-processed latency of each tuple batch,
	// together with the tuple whose stage accumulators (Svc/RPStall/MGStall)
	// decompose that latency.
	OnLatency func(d simtime.Duration, t stream.Tuple)
	// OnProcessed, when set, observes every processed batch (tests).
	OnProcessed func(t stream.Tuple)
	// OnDropped, when set, observes tuple weight destroyed inside the
	// executor (node failures, arrivals at a dead executor) so the engine can
	// reconcile its in-flight backpressure ledger.
	OnDropped func(weight int)

	// dead marks a retired executor: it accepts no new tuples (arrivals are
	// dropped and reported through OnDropped) but lets already-queued work
	// drain, which is what a graceful shutdown does.
	dead bool

	Stats Stats
}

// New builds an executor with one initial task on the given core. Executors
// always have at least one task.
func New(env Env, cfg Config, firstCore cluster.CoreID) *Executor {
	if cfg.ShardOf == nil {
		panic("executor: Config.ShardOf is required")
	}
	if cfg.Theta <= 1 {
		cfg.Theta = balancer.DefaultTheta
	}
	e := &Executor{
		cfg:          cfg,
		env:          env,
		routing:      make(map[state.ShardID]TaskID),
		stores:       make(map[cluster.NodeID]*state.Store),
		pausedBy:     make(map[state.ShardID]*reassign),
		winShardLoad: make(map[state.ShardID]float64),
		winStart:     env.Clock().Now(),
		anatHop:      metrics.NewHistogram(),
	}
	if cfg.AssertOrder {
		e.arrivalSeq = make(map[stream.Key]uint64)
		e.processedSeq = make(map[stream.Key]uint64)
	}
	e.AddCore(firstCore)
	return e
}

// Name returns the executor's configured name.
func (e *Executor) Name() string { return e.cfg.Name }

// LocalNode returns the node hosting the executor's main process.
func (e *Executor) LocalNode() cluster.NodeID { return e.cfg.LocalNode }

// Cores returns the number of live tasks (== allocated cores).
func (e *Executor) Cores() int { return e.live }

// InFlight returns the tuple weight currently inside the executor.
func (e *Executor) InFlight() int { return e.inFlight }

// HasCapacity reports whether the executor can accept weight more tuples
// under its backpressure cap.
func (e *Executor) HasCapacity(weight int) bool {
	return e.cfg.MaxInFlight <= 0 || e.inFlight+weight <= e.cfg.MaxInFlight
}

// CoresByNode returns how many of the executor's cores sit on each node.
func (e *Executor) CoresByNode() map[cluster.NodeID]int {
	m := make(map[cluster.NodeID]int)
	for _, t := range e.tasks {
		if t != nil && !t.removed {
			m[t.node]++
		}
	}
	return m
}

// store returns (creating if needed) the state store of the process on node.
func (e *Executor) store(n cluster.NodeID) *state.Store {
	s := e.stores[n]
	if s == nil {
		s = state.NewStore(e.cfg.StateBytesPerShard)
		e.stores[n] = s
	}
	return s
}

// AddCore creates a task bound to the given core (a remote process is
// implied when the core's node differs from the local node). Returns the new
// task's ID.
func (e *Executor) AddCore(core cluster.CoreID) TaskID {
	id := TaskID(len(e.tasks))
	t := &task{ex: e, id: id, core: core, node: e.env.NodeOf(core)}
	e.tasks = append(e.tasks, t)
	e.live++
	e.store(t.node)
	return id
}

// taskFor returns the live task currently owning shard s, assigning unowned
// shards to the least-loaded live task on first touch.
func (e *Executor) taskFor(s state.ShardID) *task {
	if id, ok := e.routing[s]; ok {
		if t := e.tasks[id]; t != nil && !t.removed {
			return t
		}
	}
	best := e.leastLoadedTask(-1)
	if best == nil {
		panic(fmt.Sprintf("executor %s: no live tasks", e.cfg.Name))
	}
	e.routing[s] = best.id
	return best
}

func (e *Executor) leastLoadedTask(excluding TaskID) *task {
	load := func(t *task) int {
		l := t.queuedWeight
		if t.busy {
			l++
		}
		return l
	}
	var best *task
	for _, t := range e.tasks {
		if t == nil || t.removed || t.id == excluding {
			continue
		}
		if best == nil || load(t) < load(best) {
			best = t
		}
	}
	return best
}

// Receive is the executor's receiver daemon: the single entrance for tuples
// from upstream operators (§3.3, inter-operator consistent routing). The
// caller has already charged the network cost of reaching the local node.
// It returns false when backpressure rejects the tuple.
func (e *Executor) Receive(t stream.Tuple) bool {
	if e.dead {
		e.Stats.DroppedTuples += int64(t.Weight)
		if e.OnDropped != nil {
			e.OnDropped(t.Weight)
		}
		return false
	}
	if !e.HasCapacity(t.Weight) {
		e.Stats.DroppedTuples += int64(t.Weight)
		if e.OnDropped != nil {
			e.OnDropped(t.Weight)
		}
		return false
	}
	e.inFlight += t.Weight
	e.Stats.ReceivedTuples += int64(t.Weight)
	e.Stats.InBytes += int64(t.TotalBytes())
	e.winArrived += int64(t.Weight)
	e.winInBytes += int64(t.TotalBytes())
	sh := e.cfg.ShardOf(t.Key)
	e.winShardLoad[sh] += float64(t.Weight)

	q := queued{tuple: t, shard: sh}
	if e.cfg.AssertOrder {
		e.arrivalSeq[t.Key]++
		q.arrivalSeq = e.arrivalSeq[t.Key]
	}
	if r := e.pausedBy[sh]; r != nil {
		q.bufAt = e.env.Clock().Now()
		r.buffered = append(r.buffered, q)
		return true
	}
	e.dispatch(q, e.taskFor(sh))
	return true
}

// dispatch routes a queued item to a task, crossing the network when the
// task is remote from the main process.
func (e *Executor) dispatch(q queued, t *task) {
	if t.node == e.cfg.LocalNode {
		e.enqueue(t, q)
		return
	}
	bytes := q.tuple.TotalBytes()
	if q.label != nil {
		bytes = 64 // labeling tuples are tiny control messages
	}
	e.Stats.RemoteTransferBytes += int64(bytes)
	tr := e.freeTransits
	if tr == nil {
		tr = &transit{ex: e}
		tr.done = tr.arrive
	} else {
		e.freeTransits, tr.next = tr.next, nil
	}
	tr.t, tr.q = t, q
	e.env.Send(e.cfg.LocalNode, t.node, bytes, tr.done)
}

// transit carries one queued item over the network to a remote task. Env.Send
// takes a plain func(), so a record binds its arrive method once, when it is
// allocated, and hands that same func value to every Send it is reused for.
// Records are owned by the executor's free list exactly as the engine's
// delivery records are: taken in dispatch, returned when they fire, zeroed
// while parked, dropped with the clock if the run ends first.
type transit struct {
	ex   *Executor
	t    *task
	q    queued
	done func()   // tr.arrive
	next *transit // free-list link
}

func (tr *transit) arrive() {
	e, t, q := tr.ex, tr.t, tr.q
	tr.t, tr.q = nil, queued{}
	tr.next, e.freeTransits = e.freeTransits, tr
	e.enqueue(t, q)
}

func (e *Executor) enqueue(t *task, q queued) {
	if t.failed {
		// The task died while this item was in transit to it.
		if q.label != nil {
			e.abortReassign(q.label, false)
		} else {
			e.dropWeight(q.tuple.Weight)
		}
		return
	}
	t.queue.push(q)
	t.queuedWeight += q.tuple.Weight
	e.kick(t)
}

// kick starts the task's service loop if it is idle.
func (e *Executor) kick(t *task) {
	if t.busy || t.failed || t.queue.len() == 0 {
		return
	}
	q := t.queue.pop()
	t.queuedWeight -= q.tuple.Weight
	if q.label != nil {
		// The labeling tuple reached the head of the source task's queue:
		// every tuple of the shard that was pending before the pause has now
		// been processed (first-come-first-served, §3.3).
		e.labelDrained(q.label)
		// The task continues with its other shards immediately.
		e.kick(t)
		return
	}
	t.busy = true
	t.busyWeight = q.tuple.Weight
	cost := e.cfg.Cost(q.tuple) * simtime.Duration(q.tuple.Weight)
	t.busyTime += cost
	e.winBusy += cost
	// Every real tuple in the batch spends the whole batch cost in service
	// (they complete together), so the per-tuple service accumulator grows by
	// cost and the window's weighted total by cost × weight.
	q.tuple.Svc += cost
	e.anatSvc += cost * simtime.Duration(q.tuple.Weight)
	t.serving = q
	e.env.Clock().ScheduleAfter(cost, t)
}

// Fire completes the batch in service (the task's own clock event).
func (t *task) Fire() { t.ex.finish(t) }

// finish completes processing of the batch task t has in service.
func (e *Executor) finish(t *task) {
	q := t.serving
	t.serving = queued{}
	t.busy = false
	t.busyWeight = 0
	if t.failed {
		// The task's node failed while this batch was in service.
		e.dropWeight(q.tuple.Weight)
		return
	}
	tup := q.tuple

	if e.cfg.AssertOrder {
		last := e.processedSeq[tup.Key]
		if q.arrivalSeq != last+1 {
			panic(fmt.Sprintf("executor %s: key %d processed out of order: arrival %d after %d",
				e.cfg.Name, tup.Key, q.arrivalSeq, last))
		}
		e.processedSeq[tup.Key] = q.arrivalSeq
	}

	// User logic with state access through the task's process-local store.
	var outs []stream.Tuple
	if e.cfg.Handler != nil {
		acc := e.store(t.node).Accessor(q.shard, tup.Key)
		outs = e.cfg.Handler(tup, acc)
	} else if e.cfg.Selectivity > 0 {
		// Cost-model-only operator: synthesize outputs at the configured
		// selectivity (integral part guaranteed, no randomness needed since
		// weights scale).
		n := int(e.cfg.Selectivity)
		if n >= 1 {
			for i := 0; i < n; i++ {
				outs = append(outs, stream.Tuple{Key: tup.Key, Weight: tup.Weight, Bytes: e.cfg.OutBytes, Born: tup.Born})
			}
		}
	}
	for i := range outs {
		if outs[i].Bytes == 0 {
			outs[i].Bytes = e.cfg.OutBytes
		}
		if outs[i].Weight == 0 {
			outs[i].Weight = tup.Weight
		}
		if outs[i].Born == 0 {
			outs[i].Born = tup.Born
		}
		// Outputs inherit the stage accumulators like Born, so multi-hop
		// attribution stays end to end (handler outputs start at zero).
		if outs[i].Mark == 0 {
			outs[i].Mark = tup.Mark
		}
		outs[i].Svc += tup.Svc
		outs[i].RPStall += tup.RPStall
		outs[i].MGStall += tup.MGStall
	}

	e.inFlight -= tup.Weight
	e.Stats.ProcessedTuples += int64(tup.Weight)
	e.winProcessed += int64(tup.Weight)
	now := e.env.Clock().Now()
	if tup.Mark != 0 {
		e.anatHop.Observe(now.Sub(tup.Mark), tup.Weight)
	}
	if e.OnLatency != nil {
		e.OnLatency(now.Sub(tup.Born), tup)
	}
	if e.OnProcessed != nil {
		e.OnProcessed(tup)
	}

	e.emit(t, outs)
	e.kick(t)
}

// emit forwards outputs through the emitter daemon on the local node; remote
// tasks first ship their outputs back to the main process (§3.3).
func (e *Executor) emit(t *task, outs []stream.Tuple) {
	if len(outs) == 0 {
		return
	}
	var bytes int
	for _, o := range outs {
		bytes += o.TotalBytes()
	}
	e.Stats.OutBytes += int64(bytes)
	e.winOutBytes += int64(bytes)
	if t.node == e.cfg.LocalNode {
		if e.OnOutput != nil {
			e.OnOutput(outs)
		}
		return
	}
	e.Stats.RemoteTransferBytes += int64(bytes)
	e.env.Send(t.node, e.cfg.LocalNode, bytes, func() {
		if e.OnOutput != nil {
			e.OnOutput(outs)
		}
	})
}

// ReassignShard starts the consistent reassignment protocol moving shard s
// to task dst. onDone (optional) receives the timing report. Returns false
// if the shard is already being reassigned, the destination is not live, or
// the shard is already on dst.
func (e *Executor) ReassignShard(s state.ShardID, dst TaskID, onDone func(ReassignReport)) bool {
	if e.dead || e.pausedBy[s] != nil {
		return false
	}
	if int(dst) < 0 || int(dst) >= len(e.tasks) {
		return false
	}
	dt := e.tasks[dst]
	if dt == nil || dt.removed {
		return false
	}
	src := e.taskFor(s)
	if src.id == dst {
		return false
	}
	r := &reassign{
		shard:   s,
		src:     src.id,
		dst:     dst,
		started: e.env.Clock().Now(),
		onDone:  onDone,
	}
	e.pausedBy[s] = r // pause routing for the shard
	src.pendingReassigns++
	dt.pendingReassigns++
	// Send the labeling tuple along the same path data takes so it lands
	// behind every pending tuple of the shard (FIFO per path).
	e.env.Clock().After(e.cfg.ControlDelay, func() {
		e.dispatch(queued{label: r, tuple: stream.Tuple{Weight: 0}}, src)
	})
	return true
}

// labelDrained runs when the labeling tuple is dequeued at the source task:
// pending tuples are done, state can move.
func (e *Executor) labelDrained(r *reassign) {
	if r.aborted {
		return
	}
	r.drained = e.env.Clock().Now()
	src, dst := e.tasks[r.src], e.tasks[r.dst]
	if src.node == dst.node {
		if !e.cfg.DisableStateSharing {
			// Intra-process state sharing: no migration at all (§3.2).
			e.completeReassign(r, 0)
			return
		}
		// Ablation: per-task private state forces a serialize + copy even
		// within the process (no wire time, but the CPU cost is real).
		bytes := e.store(src.node).ShardBytes(r.shard)
		e.Stats.MigrationBytes += int64(bytes)
		e.env.Clock().After(e.cfg.SerializeOverhead, func() {
			e.completeReassign(r, bytes)
		})
		return
	}
	mig := e.store(src.node).Extract(r.shard)
	e.Stats.MigrationBytes += int64(mig.Bytes)
	// Serialization overhead, then wire transfer, then install. Each step
	// re-checks aborted: a node failure mid-migration loses the payload.
	e.env.Clock().After(e.cfg.SerializeOverhead, func() {
		if r.aborted {
			return
		}
		e.env.Send(src.node, dst.node, mig.Bytes, func() {
			if r.aborted {
				return
			}
			e.store(dst.node).Install(mig)
			e.completeReassign(r, mig.Bytes)
		})
	})
}

// completeReassign updates the routing table, replays buffered tuples to the
// destination, resumes the shard, and reports timings.
func (e *Executor) completeReassign(r *reassign, movedBytes int) {
	if r.aborted {
		return
	}
	now := e.env.Clock().Now()
	src, dst := e.tasks[r.src], e.tasks[r.dst]
	e.routing[r.shard] = r.dst
	delete(e.pausedBy, r.shard)
	for _, q := range r.buffered {
		// Attribute the time spent behind the shard pause to the tuple's
		// migration stage before replaying it.
		if stall := now.Sub(q.bufAt); stall > 0 {
			q.tuple.MGStall += stall
			e.anatMGStall += stall * simtime.Duration(q.tuple.Weight)
		}
		e.dispatch(q, dst)
	}
	src.pendingReassigns--
	dst.pendingReassigns--

	inter := src.node != dst.node
	rep := ReassignReport{
		Shard:         r.shard,
		InterNode:     inter,
		SyncTime:      r.drained.Sub(r.started),
		MigrationTime: now.Sub(r.drained),
		TotalTime:     now.Sub(r.started),
		MovedBytes:    movedBytes,
	}
	e.Stats.Reassignments++
	e.Stats.SyncTimeTotal += rep.SyncTime
	e.Stats.MigrationTimeTotal += rep.MigrationTime
	if inter {
		e.Stats.InterNodeReassigns++
	} else {
		e.Stats.IntraNodeReassigns++
	}
	if r.onDone != nil {
		r.onDone(rep)
	}
	// The destination may have been marked for removal while this
	// reassignment was in flight; bounce the shard to a live task so the
	// removal can complete.
	if dst.removed {
		if alt := e.leastLoadedTask(dst.id); alt != nil {
			dst.removed = false
			e.ReassignShard(r.shard, alt.id, nil)
			dst.removed = true
		}
	}
	e.maybeFinishRemovals()
}

// RemoveCore drains and destroys the task bound to the given core,
// reassigning its shards to the remaining tasks. Removing the last task is
// refused (an executor always keeps one core). Returns false if no live task
// uses the core.
func (e *Executor) RemoveCore(core cluster.CoreID) bool {
	var victim *task
	for _, t := range e.tasks {
		if t != nil && !t.removed && t.core == core {
			victim = t
			break
		}
	}
	if victim == nil || e.live <= 1 {
		return false
	}
	victim.removed = true
	e.live--
	// Move every shard owned by the victim to the least-loaded survivor via
	// the normal consistency protocol. Shards move in ID order: each
	// reassignment shifts the survivors' pending load, so map-iteration
	// order here would make the destination choice nondeterministic.
	var moving []state.ShardID
	for s, id := range e.routing {
		if id != victim.id {
			continue
		}
		if e.pausedBy[s] != nil {
			continue // already moving; completion re-checks removal
		}
		moving = append(moving, s)
	}
	sortShards(moving)
	for _, s := range moving {
		dst := e.leastLoadedTask(victim.id)
		victim.removed = false // taskFor must still resolve the source
		e.ReassignShard(s, dst.id, nil)
		victim.removed = true
	}
	e.maybeFinishRemovals()
	return true
}

// maybeFinishRemovals destroys removed tasks that have fully drained.
func (e *Executor) maybeFinishRemovals() {
	for i, t := range e.tasks {
		if t == nil || !t.removed {
			continue
		}
		if t.pendingReassigns == 0 && t.queue.len() == 0 && !t.busy && !e.ownsShards(t.id) {
			e.tasks[i] = nil
		}
	}
}

func (e *Executor) ownsShards(id TaskID) bool {
	for _, owner := range e.routing {
		if owner == id {
			return true
		}
	}
	return false
}

// Rebalance measures per-shard load over the current window and applies the
// §3.1 policy: refine the shard→task assignment until the imbalance factor
// δ drops below θ, minimizing moves, then start the reassignment protocol
// for each move. Returns the number of reassignments initiated.
func (e *Executor) Rebalance() int {
	ids, index := e.liveTaskIDs()
	if e.dead || len(ids) <= 1 {
		return 0
	}
	// Collect the shard universe: everything with measured load or routing.
	shardSet := make(map[state.ShardID]struct{}, len(e.winShardLoad)+len(e.routing))
	for s := range e.winShardLoad {
		shardSet[s] = struct{}{}
	}
	for s := range e.routing {
		shardSet[s] = struct{}{}
	}
	shards := make([]state.ShardID, 0, len(shardSet))
	for s := range shardSet {
		if e.pausedBy[s] == nil { // skip shards already in flight
			shards = append(shards, s)
		}
	}
	sortShards(shards)
	loads := make([]float64, len(shards))
	assign := make([]int, len(shards))
	for i, s := range shards {
		loads[i] = e.winShardLoad[s]
		assign[i] = index[e.taskFor(s).id]
	}
	moves := balancer.Rebalance(loads, assign, len(ids), e.cfg.Theta, 0)
	started := 0
	for _, m := range moves {
		if e.ReassignShard(shards[m.Shard], ids[m.To], nil) {
			started++
		}
	}
	return started
}

// liveTaskIDs returns the live task IDs in order plus a reverse index.
func (e *Executor) liveTaskIDs() ([]TaskID, map[TaskID]int) {
	var ids []TaskID
	index := make(map[TaskID]int)
	for _, t := range e.tasks {
		if t != nil && !t.removed {
			index[t.id] = len(ids)
			ids = append(ids, t.id)
		}
	}
	return ids, index
}

func sortShards(s []state.ShardID) {
	for a := 1; a < len(s); a++ {
		for b := a; b > 0 && s[b] < s[b-1]; b-- {
			s[b], s[b-1] = s[b-1], s[b]
		}
	}
}

// Window is one measurement window of executor metrics, the scheduler's
// model inputs (§4.1).
type Window struct {
	Span          simtime.Duration
	Lambda        float64 // arrivals per second
	Mu            float64 // per-core service rate (processed per busy-second)
	DataIntensity float64 // (in+out bytes)/s per core
	Processed     int64
}

// TakeWindow returns measurements since the previous call and resets the
// window counters.
func (e *Executor) TakeWindow() Window {
	now := e.env.Clock().Now()
	span := now.Sub(e.winStart)
	w := Window{Span: span, Processed: e.winProcessed}
	if sec := span.Seconds(); sec > 0 {
		w.Lambda = float64(e.winArrived) / sec
		cores := e.live
		if cores < 1 {
			cores = 1
		}
		w.DataIntensity = float64(e.winInBytes+e.winOutBytes) / sec / float64(cores)
	}
	if busy := e.winBusy.Seconds(); busy > 0 {
		w.Mu = float64(e.winProcessed) / busy
	}
	e.winArrived, e.winProcessed = 0, 0
	e.winBusy = 0
	e.winInBytes, e.winOutBytes = 0, 0
	clear(e.winShardLoad)
	e.winStart = now
	return w
}

// TakeAnatomy drains the executor's latency-anatomy window: it merges the
// hop-latency histogram (admission stamp to processed) into hop, returns the
// weighted stage totals Σ service × weight and Σ shard-pause stall × weight,
// and resets all three. The engine folds these into per-operator stage sets
// at the metrics window tick. Independent of TakeWindow: anatomy folds on the
// metrics window tick, the scheduler window on the control cadence.
func (e *Executor) TakeAnatomy(hop *metrics.Histogram) (svc, mgStall simtime.Duration) {
	hop.Merge(e.anatHop)
	e.anatHop.Reset()
	svc, mgStall = e.anatSvc, e.anatMGStall
	e.anatSvc, e.anatMGStall = 0, 0
	return svc, mgStall
}

// ShardLoadSnapshot returns the current window's per-shard load (for tests).
func (e *Executor) ShardLoadSnapshot() map[state.ShardID]float64 {
	out := make(map[state.ShardID]float64, len(e.winShardLoad))
	for k, v := range e.winShardLoad {
		out[k] = v
	}
	return out
}

// QueuedWeight returns the total tuple weight waiting in task queues
// (excluding paused buffers), a drain signal for the RC baseline.
func (e *Executor) QueuedWeight() int {
	n := 0
	for _, t := range e.tasks {
		if t != nil {
			n += t.queuedWeight
			if t.busy {
				n++ // count the batch in service as pending work
			}
		}
	}
	return n
}

// Idle reports whether the executor has no queued, buffered, or in-service
// work and no in-flight reassignments.
func (e *Executor) Idle() bool {
	if len(e.pausedBy) > 0 {
		return false
	}
	for _, t := range e.tasks {
		if t != nil && (t.busy || t.queue.len() > 0) {
			return false
		}
	}
	return e.inFlight == 0
}

// ReleaseShard removes shard s from this executor and hands back its state;
// used by the resource-centric baseline's operator-level repartitioning
// after a global drain. It panics if the executor still has pending work for
// the shard (the RC protocol must drain first — that is its whole cost).
func (e *Executor) ReleaseShard(s state.ShardID) *state.Migration {
	if e.pausedBy[s] != nil {
		panic("executor: ReleaseShard during reassignment")
	}
	owner := e.taskFor(s)
	m := e.store(owner.node).Extract(s)
	delete(e.routing, s)
	return m
}

// AdoptShard installs a migrated shard into this executor, mapping it to the
// least-loaded task. A dead executor discards the migration (the shard was
// in flight when the destination retired).
func (e *Executor) AdoptShard(m *state.Migration) {
	if e.dead {
		return
	}
	t := e.leastLoadedTask(-1)
	if t == nil {
		panic("executor: AdoptShard with no live tasks")
	}
	e.store(t.node).Install(m)
	e.routing[m.Shard] = t.id
}

// HasResidentShard reports whether any of the executor's process stores
// holds resident state for shard s (churn bookkeeping: distinguishes a
// delivered migration from one still on the wire).
func (e *Executor) HasResidentShard(s state.ShardID) bool {
	for _, st := range e.stores {
		if st.HasShard(s) {
			return true
		}
	}
	return false
}

// AdoptShardIfAbsent installs a migrated shard unless the executor is dead
// or any of its process stores already holds resident state for it — the
// deterministic tie-break for churn-era migrations whose destination was
// re-resolved by a routing fallback (first arrival wins, later payloads are
// discarded).
func (e *Executor) AdoptShardIfAbsent(m *state.Migration) {
	if e.dead {
		return
	}
	for _, st := range e.stores {
		if st.HasShard(m.Shard) {
			return
		}
	}
	e.AdoptShard(m)
}

// StateStore exposes the process store on a node (tests and RC baseline).
func (e *Executor) StateStore(n cluster.NodeID) *state.Store { return e.store(n) }

// TaskOnNode returns any live task hosted on the given node.
func (e *Executor) TaskOnNode(n cluster.NodeID) (TaskID, bool) {
	for _, t := range e.tasks {
		if t != nil && !t.removed && t.node == n {
			return t.id, true
		}
	}
	return 0, false
}

// AnyShardNotOn returns the lowest-ID shard whose owner is not the given
// task and is not currently being reassigned (lowest rather than map order:
// the chosen shard's queue depth decides the measured protocol timings, so
// the pick must be deterministic). Lazily routes shard 0 if the executor has
// never seen a tuple, so the protocol experiments always have a subject.
func (e *Executor) AnyShardNotOn(dst TaskID) (state.ShardID, bool) {
	if len(e.routing) == 0 {
		e.taskFor(0)
	}
	var best state.ShardID
	found := false
	for s, owner := range e.routing {
		if owner != dst && e.pausedBy[s] == nil {
			if t := e.tasks[owner]; t != nil && !t.removed {
				if !found || s < best {
					best, found = s, true
				}
			}
		}
	}
	return best, found
}

// SetStateBytesPerShard overrides the nominal shard state size for all of
// the executor's process stores and future shards (state-size sweeps).
func (e *Executor) SetStateBytesPerShard(bytes int) {
	e.cfg.StateBytesPerShard = bytes
	for _, s := range e.stores {
		s.DefaultShardBytes = bytes
	}
}
