package runtime

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/state"
)

// Cluster churn on the real-time backend. The handlers run on the control
// goroutine (scenario events post there), so they are serialized with every
// policy tick and assignment — the same ordering the simulator's event loop
// provides.

// AddNode grows the cluster by one node (0 cores = the configured default)
// and notifies the policy. Safe to call from any goroutine.
func (e *Engine) AddNode(cores int) {
	e.post(func() { e.addNode(cores) })
}

// DrainNode removes a node gracefully: grants are revoked, executors homed
// there are rehomed or retired with their state migrated (never lost).
func (e *Engine) DrainNode(n int) {
	e.post(func() {
		if err := e.removeNode(n, true); err != nil {
			e.recordChurnError(err.Error())
		}
	})
}

// FailNode removes a node hard: executors homed there lose their queues and
// state, with every dropped tuple and byte accounted.
func (e *Engine) FailNode(n int) {
	e.post(func() {
		if err := e.removeNode(n, false); err != nil {
			e.recordChurnError(err.Error())
		}
	})
}

func (e *Engine) recordChurnError(msg string) {
	e.repMu.Lock()
	e.churnErrors = append(e.churnErrors, msg)
	e.repMu.Unlock()
}

func (e *Engine) addNode(cores int) {
	if cores <= 0 {
		cores = e.cfg.Cluster.CoresPerNode
	}
	id := len(e.nodes)
	if e.remote != nil {
		// The agent must be serving before any grant can land on the node;
		// a spawn/adopt failure vetoes the join.
		if err := e.remote.NodeAdded(id, cores); err != nil {
			e.recordChurnError(fmt.Sprintf("runtime: add node %d: %v", id, err))
			return
		}
	}
	nd := &node{id: id, cores: cores, alive: true}
	nd.free.Store(int64(cores))
	e.nodesMu.Lock()
	e.nodes = append(e.nodes, nd)
	e.nodesMu.Unlock()
	e.repMu.Lock()
	e.nodeJoins++
	e.repMu.Unlock()
	e.emit(engine.Event{Kind: engine.EventNodeJoin, At: e.vnow(), Node: id, Cores: cores})
	e.pol.CapacityChanged()
}

func (e *Engine) removeNode(n int, graceful bool) error {
	kind := "fail"
	if graceful {
		kind = "drain"
	}
	if n < 0 || n >= len(e.nodes) || !e.nodes[n].alive {
		return fmt.Errorf("runtime: %s of node %d: not alive", kind, n)
	}
	live := 0
	for _, nd := range e.nodes {
		if nd.alive {
			live++
		}
	}
	if live <= 1 {
		return fmt.Errorf("runtime: %s of node %d would remove the last node", kind, n)
	}
	nd := e.nodes[n]
	e.nodesMu.Lock()
	nd.alive = false
	nd.free.Store(0)
	nd.srcReserved = 0
	e.nodesMu.Unlock()

	for _, o := range e.opOrder {
		e.evacuateOp(o, n, graceful)
	}

	e.repMu.Lock()
	if graceful {
		e.nodeDrains++
	} else {
		e.nodeFails++
	}
	e.repMu.Unlock()
	kindEv := engine.EventNodeFail
	if graceful {
		kindEv = engine.EventNodeDrain
	}
	e.emit(engine.Event{Kind: kindEv, At: e.vnow(), Node: n})
	if e.remote != nil {
		// After evacuation: a graceful drain has already migrated every byte
		// out of the live agent; a failure echo releases a dead one.
		e.remote.NodeRemoved(n, graceful)
	}
	e.pol.CapacityChanged()
	return nil
}

// evacuateOp removes node n from one operator's executors: revoke grants,
// rehome survivors, retire executors left without a foothold.
func (e *Engine) evacuateOp(o *op, n int, graceful bool) {
	snap := o.snap.Load()
	var retire []*exec
	for _, x := range snap.execs {
		// Revoke every grant on the dead node.
		for x.grantsOn(n) > 0 {
			if !x.revoke(n, true) {
				break
			}
		}
		if x.grantCount() == 0 {
			// Try a foothold on a live node — a free core first, then one
			// stolen from a multi-core executor (the simulator's
			// foothold-stealing); otherwise the executor retires.
			g := e.takeFreeCore(-1)
			if g < 0 {
				g = e.stealCore()
			}
			if g >= 0 {
				x.grant(g)
			} else {
				retire = append(retire, x)
				continue
			}
		}
		if x.local == n {
			// Rehome the main process next to one of its workers. A graceful
			// drain migrates the resident state; a failure writes it off and
			// destroys the queue too — queued tuples lived with the dead
			// main process (the simulator's FailNode does the same).
			x.gmu.Lock()
			newLocal := x.local
			for _, w := range x.workers {
				if e.nodes[w.node].alive {
					newLocal = w.node
					break
				}
			}
			x.local = newLocal
			x.gmu.Unlock()
			bytes := x.stateBytes()
			if graceful {
				e.migrationBytes.Add(bytes)
				if e.remote != nil && newLocal != n {
					if _, err := e.remote.MoveExecState(n, newLocal, x.remoteExec()); err != nil {
						e.recordChurnError(fmt.Sprintf("runtime: migrate %s off node %d: %v", x.name, n, err))
					}
				}
			} else {
				e.lostStateBytes.Add(bytes)
				e.clearState(x)
				e.dropQueue(o, x)
				if e.remote != nil {
					e.remote.DropExecState(n, x.remoteExec())
				}
			}
		}
	}
	if len(retire) > 0 {
		e.retireExecs(o, retire, graceful)
	}
}

// stealCore revokes one grant from an executor holding several, returning
// the freed node (-1 if every executor is down to its last core).
func (e *Engine) stealCore() int {
	for _, x := range e.elastic {
		x.gmu.Lock()
		victim := -1
		if len(x.workers) >= 2 {
			for _, w := range x.workers {
				if e.nodes[w.node].alive {
					victim = w.node
					break
				}
			}
		}
		x.gmu.Unlock()
		if victim >= 0 && x.revoke(victim, false) {
			return victim
		}
	}
	return -1
}

// clearState empties an executor's shard maps (hard failure: the state on
// the failed main process is gone).
func (e *Engine) clearState(x *exec) {
	for _, st := range x.stripes {
		st.mu.Lock()
		st.shards = make(map[state.ShardID]*shardData)
		st.mu.Unlock()
	}
}

// retireExecs removes executors from an operator's live set, publishes the
// shrunken routing snapshot, then disposes of each retiree's queue and state:
// gracefully (redirect queued tuples to the new owners, migrate state to the
// survivors) or hard (drop and write off).
func (e *Engine) retireExecs(o *op, retire []*exec, graceful bool) {
	dead := make(map[*exec]bool, len(retire))
	for _, x := range retire {
		dead[x] = true
		x.gmu.Lock()
		x.retired = true
		x.gmu.Unlock()
	}

	o.snapMu.Lock()
	cur := o.snap.Load()
	var survivors []*exec
	oldIdx := make(map[*exec]int, len(cur.execs))
	newIdx := make([]int, len(cur.execs)) // old index → new index (-1 retired)
	for i, x := range cur.execs {
		oldIdx[x] = i
		if dead[x] {
			newIdx[i] = -1
			continue
		}
		newIdx[i] = len(survivors)
		survivors = append(survivors, x)
	}
	var routing []int
	if cur.routing != nil && len(survivors) > 0 {
		routing = make([]int, len(cur.routing))
		for s, owner := range cur.routing {
			if owner >= 0 && owner < len(newIdx) && newIdx[owner] >= 0 {
				routing[s] = newIdx[owner]
			} else {
				routing[s] = s % len(survivors) // orphaned shard: rehash
			}
		}
	}
	if len(survivors) == 0 {
		// Nothing left to serve the operator; keep the old snapshot (tuples
		// will pile up and be swept at shutdown) and report the refusal.
		o.snapMu.Unlock()
		e.recordChurnError(fmt.Sprintf("runtime: operator %q has no surviving executors", o.meta.Name))
		return
	}
	o.snap.Store(newOpSnap(survivors, routing))
	o.snapMu.Unlock()

	for _, x := range retire {
		// Dispose of the queue on a reaper goroutine that lives until
		// shutdown: a racing deliver that loaded the old snapshot may still
		// send into the retiree's channel *after* any one-shot drain, and
		// with zero workers left that tuple would be parked forever (a
		// later repartition's drain-wait would then spin on the leaked
		// inflight weight). Graceful retirement redirects through the new
		// routing; a failure drops with cause. Running off the control
		// goroutine also keeps the control plane responsive while blocking
		// deliver calls wait out full survivor queues.
		e.wg.Add(1)
		go e.reapQueue(o, x, graceful)
		if graceful {
			moved := e.redistributeState(x, survivors)
			e.migrationBytes.Add(moved)
		} else {
			e.lostStateBytes.Add(x.stateBytes())
			e.clearState(x)
			if e.remote != nil {
				e.remote.DropExecState(x.localNode(), x.remoteExec())
			}
		}
	}

	// Rebuild the flat scheduler indexing without the retirees.
	var elastic []*exec
	for _, x := range e.elastic {
		if !dead[x] {
			elastic = append(elastic, x)
		}
	}
	e.elastic = elastic
	o.retiredN.Add(int64(len(retire)))
	e.repMu.Lock()
	e.retiredExecs += len(retire)
	e.repMu.Unlock()
}

// dropQueue destroys an executor's currently queued tuples with failure
// accounting (the queue lived with a failed main process). One-shot: used
// for executors that stay live (their surviving workers keep serving later
// arrivals), so only the contents at failure time are lost. Safe against
// workers concurrently pulling from the same channel: each tuple is either
// processed or dropped, never both.
func (e *Engine) dropQueue(o *op, x *exec) {
	for {
		select {
		case ts := <-x.in:
			var w int64
			for i := range ts {
				w += int64(ts[i].Weight)
			}
			o.inflight.Add(0, -w)
			o.dropFail.Add(w)
			x.dropped.Add(w)
			x.queuedW.Add(-w)
			putTupleBuf(ts)
		default:
		}
		if len(x.in) == 0 {
			return
		}
	}
}

// reapQueue drains a *retired* executor's channel until shutdown — not just
// until it is momentarily empty, because a racing deliver that loaded the
// pre-retirement snapshot may still send here later, and the retiree has no
// workers left to serve it. Graceful retirees redirect tuples through the
// operator's new routing; failed ones drop them with cause. Anything still
// queued at shutdown is swept into the ledger as residue.
func (e *Engine) reapQueue(o *op, x *exec, graceful bool) {
	defer e.wg.Done()
	defer e.guard("retire drain " + x.name)
	for {
		select {
		case ts := <-x.in:
			var w int64
			for i := range ts {
				w += int64(ts[i].Weight)
			}
			o.inflight.Add(0, -w)
			x.queuedW.Add(-w)
			if graceful {
				o.admitted.Add(0, -w) // deliver re-admits the batch
				e.deliver(o, ts, true, 0)
			} else {
				o.dropFail.Add(w)
				x.dropped.Add(w)
			}
			putTupleBuf(ts)
		case <-e.stopWorkers:
			return
		}
	}
}

// redistributeState moves a retiring executor's materialized shards onto the
// survivors (round-robin), returning the bytes migrated. With a Remote, the
// agent-side payloads follow the same assignment the metadata takes here.
func (e *Engine) redistributeState(x *exec, survivors []*exec) int64 {
	var moved int64
	var remoteDest map[*exec][]uint32
	if e.remote != nil {
		remoteDest = make(map[*exec][]uint32, len(survivors))
	}
	i := 0
	for _, st := range x.stripes {
		st.mu.Lock()
		shards := st.shards
		st.shards = make(map[state.ShardID]*shardData)
		st.mu.Unlock()
		for sh, d := range shards {
			dst := survivors[i%len(survivors)]
			i++
			dst.putShard(sh, d)
			moved += int64(d.bytes)
			if remoteDest != nil {
				remoteDest[dst] = append(remoteDest[dst], uint32(sh))
			}
		}
	}
	if e.remote != nil && len(remoteDest) > 0 {
		dests := make([]RemoteDest, 0, len(remoteDest))
		for dst, shs := range remoteDest {
			dests = append(dests, RemoteDest{Node: dst.localNode(), Exec: dst.remoteExec(), Shards: shs})
		}
		if _, err := e.remote.RedistributeState(x.localNode(), x.remoteExec(), dests); err != nil {
			e.recordChurnError(fmt.Sprintf("runtime: redistribute %s state: %v", x.name, err))
		}
	}
	return moved
}
