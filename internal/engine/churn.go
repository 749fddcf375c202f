package engine

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/simtime"
	"repro/internal/state"
)

// This file is the engine's capacity-change path: nodes joining, draining
// gracefully, and failing hard while a simulation runs. The mechanism is
// paradigm-agnostic — evacuation reuses the elastic reassignment protocol,
// retirement falls back to operator-level state handoff — and the installed
// policy is notified through Policy.CapacityChanged once the mechanical
// reaction is complete.

// CapacityChange enumerates the kinds of cluster capacity change.
type CapacityChange int

// The three cluster events a scenario can schedule.
const (
	NodeJoined CapacityChange = iota
	NodeDrained
	NodeFailed
)

func (c CapacityChange) String() string {
	switch c {
	case NodeJoined:
		return "join"
	case NodeDrained:
		return "drain"
	case NodeFailed:
		return "fail"
	}
	return fmt.Sprintf("capacity(%d)", int(c))
}

// CapacityEvent describes one completed cluster capacity change.
type CapacityEvent struct {
	Kind  CapacityChange
	Node  cluster.NodeID
	Cores int // cores added (joins only)
	At    simtime.Time
}

// SetOnCapacityChange installs an observer for completed capacity changes
// (experiments and tests; the policy hook is Policy.CapacityChanged).
func (e *Engine) SetOnCapacityChange(fn func(CapacityEvent)) { e.onCapacity = fn }

// RecordChurnError notes a scheduled capacity event the engine refused —
// valid in the spec but infeasible for the live placement. The run continues
// without the event; the report carries the refusal so it cannot pass
// silently.
func (e *Engine) RecordChurnError(msg string) { e.r.ChurnErrors = append(e.r.ChurnErrors, msg) }

func (e *Engine) capacityChanged(ev CapacityEvent) {
	kind := EventNodeJoin
	switch ev.Kind {
	case NodeDrained:
		kind = EventNodeDrain
	case NodeFailed:
		kind = EventNodeFail
	}
	e.emit(Event{Kind: kind, At: ev.At, Node: int(ev.Node), Cores: ev.Cores})
	if e.onCapacity != nil {
		e.onCapacity(ev)
	}
	e.pol.CapacityChanged()
}

// AddNode grows the cluster by one node (cores 0 uses the configured
// cores-per-node) and hands its cores to the free pool. The policy is
// notified immediately; an elastic control plane starts scheduling onto the
// new capacity right away, the baselines can't use it at all.
func (e *Engine) AddNode(cores int) cluster.NodeID {
	n := e.cluster.AddNode(cores)
	ids := e.cluster.CoresOn(n)
	e.freeCores[n] = append([]cluster.CoreID(nil), ids...)
	e.r.NodeJoins++
	e.capacityChanged(CapacityEvent{Kind: NodeJoined, Node: n, Cores: len(ids), At: e.clock.Now()})
	return n
}

// DrainNode removes node n gracefully: its free cores leave the pool, its
// source instances move to surviving nodes, and every executor holding cores
// there evacuates through the ordinary consistency protocol — shard state
// migrates off with the usual costs. Executors whose entire footprint was on
// n get a foothold elsewhere (a free core, else one stolen from the
// best-provisioned executor); when no core can be found anywhere the
// executor retires and its key range redistributes. Migrations complete
// asynchronously in virtual time; the node is dead for capacity purposes
// immediately.
func (e *Engine) DrainNode(n cluster.NodeID) error {
	if err := e.checkRemovable(n, true); err != nil {
		return err
	}
	delete(e.freeCores, n)
	e.relocateSources(n)
	// Rescue pass: operators that would lose every executor get first claim
	// on the foothold supply (preflightRemoval sized it per such operator) —
	// otherwise a non-critical executor of an earlier operator could consume
	// the last foothold and strand a later operator entirely.
	type slot struct {
		rt *opRuntime
		i  int
	}
	rescued := make(map[slot]bool)
	retireByOp := make(map[*opRuntime][]int)
	for _, rt := range e.opOrder {
		survives := false
		for i := range rt.execs {
			for _, c := range rt.cores[i] {
				if node := e.cluster.NodeOf(c); node != n && e.cluster.NodeAlive(node) {
					survives = true
					break
				}
			}
			if survives {
				break
			}
		}
		if survives || len(rt.execs) == 0 {
			continue
		}
		if e.evacuate(rt, 0, n) {
			retireByOp[rt] = append(retireByOp[rt], 0)
		}
		rescued[slot{rt, 0}] = true
	}
	for _, rt := range e.opOrder {
		retire := retireByOp[rt]
		for i := range rt.execs {
			if rescued[slot{rt, i}] {
				continue
			}
			if e.evacuate(rt, i, n) {
				retire = append(retire, i)
			}
		}
		e.retireExecutors(rt, retire, true)
	}
	e.cluster.RemoveNode(n)
	e.r.NodeDrains++
	e.capacityChanged(CapacityEvent{Kind: NodeDrained, Node: n, At: e.clock.Now()})
	return nil
}

// FailNode removes node n instantly: queued work and resident state on the
// node are destroyed (counted in the report), in-flight protocol steps
// touching the node abort, and orphaned key ranges re-route to survivors
// with fresh state. Executors homed on n rehome; executors that lose their
// last task retire.
func (e *Engine) FailNode(n cluster.NodeID) error {
	if err := e.checkRemovable(n, false); err != nil {
		return err
	}
	delete(e.freeCores, n)
	e.relocateSources(n)
	for _, rt := range e.opOrder {
		var retire []int
		for i, ex := range rt.execs {
			var keep []cluster.CoreID
			for _, c := range rt.cores[i] {
				if e.cluster.NodeOf(c) != n {
					keep = append(keep, c)
				}
			}
			rt.cores[i] = keep
			// Unconditionally: even with no *recorded* cores on n, the
			// executor may still have a draining task, an in-flight
			// reassignment, or a state store there (a graceful core
			// revocation strips the record before the task finishes
			// draining). FailNode is a no-op for untouched executors.
			rep := ex.FailNode(n)
			e.r.LostStateBytes += rep.LostStateBytes
			if rep.Dead {
				retire = append(retire, i)
			}
		}
		e.retireExecutors(rt, retire, false)
	}
	e.cluster.RemoveNode(n)
	e.r.NodeFails++
	e.capacityChanged(CapacityEvent{Kind: NodeFailed, Node: n, At: e.clock.Now()})
	return nil
}

func (e *Engine) checkRemovable(n cluster.NodeID, graceful bool) error {
	if !e.cluster.NodeAlive(n) {
		return fmt.Errorf("engine: node %d is not alive", n)
	}
	if e.cluster.AliveNodes() <= 1 {
		return fmt.Errorf("engine: cannot remove the last live node")
	}
	return e.preflightRemoval(n, graceful)
}

// preflightRemoval rejects removals that would leave an operator with no
// executors, before anything is mutated. A hard failure kills every executor
// whose cores are all on n, so each operator needs at least one executor
// with a core elsewhere. A graceful drain can rescue a wholly-on-n operator
// through a foothold core, so it only fails when the foothold supply (free
// cores on surviving nodes, plus one donatable core per multi-core executor
// with a core elsewhere) cannot cover every operator needing a rescue.
// Scenario validation cannot see placement, so this is where a valid spec
// whose event is infeasible for the actual layout surfaces as an error.
func (e *Engine) preflightRemoval(n cluster.NodeID, graceful bool) error {
	usableCore := func(c cluster.CoreID) bool {
		node := e.cluster.NodeOf(c)
		return node != n && e.cluster.NodeAlive(node)
	}
	supply := 0
	for i := 0; i < e.cluster.Nodes(); i++ {
		id := cluster.NodeID(i)
		if id != n && e.cluster.NodeAlive(id) {
			supply += len(e.freeCores[id])
		}
	}
	needRescue := 0
	for _, rt := range e.opOrder {
		survivors := 0
		for i := range rt.execs {
			elsewhere := false
			for _, c := range rt.cores[i] {
				if usableCore(c) {
					elsewhere = true
					break
				}
			}
			if elsewhere {
				survivors++
			}
			if graceful {
				usable := 0
				for _, c := range rt.cores[i] {
					if usableCore(c) {
						usable++
					}
				}
				if usable >= 2 {
					supply++ // can donate a usable core and keep one
				}
			}
		}
		if survivors > 0 {
			continue
		}
		if !graceful {
			return fmt.Errorf("engine: failing node %d would destroy every executor of %q", n, rt.op.Name)
		}
		needRescue++
	}
	if needRescue > supply {
		return fmt.Errorf("engine: draining node %d would leave an operator with no executors (%d rescues needed, %d foothold cores available)",
			n, needRescue, supply)
	}
	return nil
}

// relocateSources moves source instances off a dying node, cycling over the
// surviving nodes in ID order. Relocated instances ride along core-free
// (freeRide): the surviving nodes' cores are already spoken for, and the
// churn's capacity hit is modeled by the lost node itself.
func (e *Engine) relocateSources(n cluster.NodeID) {
	var targets []cluster.NodeID
	for i := 0; i < e.cluster.Nodes(); i++ {
		id := cluster.NodeID(i)
		if id != n && e.cluster.NodeAlive(id) {
			targets = append(targets, id)
		}
	}
	k := 0
	for _, op := range e.cfg.Topology.Sources() {
		for _, inst := range e.sources[op.ID] {
			if inst.node == n {
				inst.node = targets[k%len(targets)]
				inst.freeRide = true
				k++
			}
		}
	}
}

// evacuate clears one executor off a draining node through the graceful
// protocol. Reports true when the executor could not keep any core and must
// be retired by the caller.
func (e *Engine) evacuate(rt *opRuntime, i int, n cluster.NodeID) bool {
	ex := rt.execs[i]
	var dying, surviving []cluster.CoreID
	for _, c := range rt.cores[i] {
		if e.cluster.NodeOf(c) == n {
			dying = append(dying, c)
		} else {
			surviving = append(surviving, c)
		}
	}
	if len(dying) == 0 && ex.LocalNode() != n {
		return false
	}
	if len(surviving) == 0 {
		core, ok := e.footholdCore(n)
		if !ok {
			return true
		}
		ex.AddCore(core)
		rt.cores[i] = append(rt.cores[i], core)
		surviving = append(surviving, core)
	}
	if ex.LocalNode() == n {
		ex.Rehome(e.cluster.NodeOf(surviving[0]))
	}
	for _, c := range dying {
		// The shard migrations run through the normal consistency protocol;
		// the physical core is NOT released back to the pool — it leaves
		// with the node.
		if ex.RemoveCore(c) {
			e.removeCoreRecord(rt, i, c)
		}
	}
	return false
}

// footholdCore finds one core on a live node other than avoid: first from
// the free pool (nodes in ID order), else stolen from the best-provisioned
// executor (most cores; first in deterministic order on ties), which gives
// it up through the graceful protocol.
func (e *Engine) footholdCore(avoid cluster.NodeID) (cluster.CoreID, bool) {
	for i := 0; i < e.cluster.Nodes(); i++ {
		id := cluster.NodeID(i)
		if id == avoid || !e.cluster.NodeAlive(id) {
			continue
		}
		if c, ok := e.takeFreeCoreOn(id); ok {
			return c, true
		}
	}
	// Rank donors by how many *usable* cores they hold — counting cores on
	// the dying node would let a donation strand the donor itself. A donor
	// needs at least two usable cores so it keeps one after giving.
	var donorRt *opRuntime
	donorIdx, donorUsable := -1, 1
	var donated cluster.CoreID
	for _, rt := range e.opOrder {
		for i := range rt.execs {
			usable := 0
			var last cluster.CoreID
			for _, c := range rt.cores[i] {
				node := e.cluster.NodeOf(c)
				if node != avoid && e.cluster.NodeAlive(node) {
					usable++
					last = c
				}
			}
			if usable > donorUsable {
				donorRt, donorIdx, donorUsable, donated = rt, i, usable, last
			}
		}
	}
	if donorIdx < 0 {
		return 0, false
	}
	if !donorRt.execs[donorIdx].RemoveCore(donated) {
		return 0, false
	}
	e.removeCoreRecord(donorRt, donorIdx, donated)
	return donated, true
}

// retireExecutors removes the executors at idxs (ascending) from rt's
// topology in one batch: remaining traffic re-routes to the surviving
// executors. Batching matters — a drain can retire several executors of one
// operator at once, and handing a retiree's shards to a *later* retiree
// would migrate them twice. A graceful retirement hands the operator-level
// shard state over (billed like any migration); a failed one writes it off —
// the loss was already counted by FailNode. Retiring an operator's last
// executor is unsupported; preflightRemoval rejects the triggering removals
// up front, so the panic here is an invariant backstop.
func (e *Engine) retireExecutors(rt *opRuntime, idxs []int, graceful bool) {
	if len(idxs) == 0 {
		return
	}
	if len(idxs) >= len(rt.execs) {
		panic(fmt.Sprintf("engine: churn would retire every executor of %q", rt.op.Name))
	}
	retiring := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		retiring[i] = true
		rt.execs[i].Kill()
	}
	var survivors []*executor.Executor
	newIdx := make(map[int]int, len(rt.execs)-len(idxs))
	for i, ex := range rt.execs {
		if !retiring[i] {
			newIdx[i] = len(survivors)
			survivors = append(survivors, ex)
		}
	}
	if graceful && rt.opRouting != nil {
		// Shards whose state the repartition protocol already extracted are
		// in transit to a surviving destination (migrateShards re-resolves
		// retired ones); everything else — including moves decided but not
		// yet released — hands its state to the survivor the routing remap
		// below will pick, and migrateShards skips those moves via its
		// dead-source check.
		extracted := make(map[int]bool)
		if rt.repartition != nil {
			rp := rt.repartition
			retiringEx := make(map[*executor.Executor]bool, len(idxs))
			for _, i := range idxs {
				retiringEx[rt.execs[i]] = true
			}
			for k, mv := range rp.moves {
				if rp.released[k] {
					extracted[mv.Shard] = true
				}
				// A released move whose *destination* is retiring: if the
				// state already arrived it sits in the retiree's store —
				// forward it to the fallback survivor and repin the move so
				// finishRepartition routes there. Still on the wire, the
				// delivery callback's dead-destination redirect does both.
				if !rp.released[k] || !retiringEx[rp.dstEx[k]] {
					continue
				}
				old := rp.dstEx[k]
				target := survivors[mv.Shard%len(survivors)]
				rp.dstEx[k] = target
				if old.HasResidentShard(state.ShardID(mv.Shard)) {
					mig := old.ReleaseShard(state.ShardID(mv.Shard))
					old.Stats.MigrationBytes += int64(mig.Bytes)
					e.cluster.Send(old.LocalNode(), target.LocalNode(), mig.Bytes, func() {
						target.AdoptShardIfAbsent(mig)
					})
				}
			}
		}
		for s, owner := range rt.opRouting {
			if !retiring[owner] || extracted[s] {
				continue
			}
			ex := rt.execs[owner]
			dst := survivors[s%len(survivors)]
			mig := ex.ReleaseShard(state.ShardID(s))
			ex.Stats.MigrationBytes += int64(mig.Bytes)
			e.cluster.Send(ex.LocalNode(), dst.LocalNode(), mig.Bytes, func() {
				// The destination came from the routing fallback formula, so
				// a racing churn migration may have gotten there first (or
				// retired it); first arrival wins, deterministically.
				dst.AdoptShardIfAbsent(mig)
			})
		}
	} else if graceful {
		// Elastic executors: their key subspaces rehash over the survivors;
		// bill each resident state handoff to a successor.
		for _, i := range idxs {
			ex := rt.execs[i]
			if bytes := ex.ResidentStateBytes(); bytes > 0 {
				succ := survivors[i%len(survivors)]
				ex.Stats.MigrationBytes += bytes
				e.cluster.Send(ex.LocalNode(), succ.LocalNode(), int(bytes), func() {})
			}
		}
	}
	if rt.opRouting != nil {
		for s, owner := range rt.opRouting {
			if retiring[owner] {
				rt.opRouting[s] = s % len(survivors)
			} else {
				rt.opRouting[s] = newIdx[owner]
			}
		}
	}
	var keptCores [][]cluster.CoreID
	for i := range rt.execs {
		if retiring[i] {
			ex := rt.execs[i]
			e.retired = append(e.retired, ex)
			rt.retiredExecs = append(rt.retiredExecs, ex)
			e.r.RetiredExecutors++
			delete(e.blockedW, ex)
			delete(e.lastMu, ex)
		} else {
			keptCores = append(keptCores, rt.cores[i])
		}
	}
	rt.execs = survivors
	rt.cores = keptCores
	e.rebuildElastic()
	// e.inflight entries of retired executors drain to zero through
	// OnDropped as in-flight tuples arrive at the dead executors.
}

// rebuildElastic re-derives the flat executor indexing after retirement.
func (e *Engine) rebuildElastic() {
	e.elastic = e.elastic[:0]
	e.elasticOp = e.elasticOp[:0]
	for _, rt := range e.opOrder {
		for _, ex := range rt.execs {
			e.elastic = append(e.elastic, ex)
			e.elasticOp = append(e.elasticOp, rt)
		}
	}
}

// execIndex returns ex's current index in rt.execs, or -1 if retired.
func execIndex(rt *opRuntime, ex *executor.Executor) int {
	for i, cand := range rt.execs {
		if cand == ex {
			return i
		}
	}
	return -1
}
