package executor

import (
	"repro/internal/cluster"
	"repro/internal/state"
)

// This file is the executor's cluster-churn surface: what happens to one
// elastic executor when a node leaves the cluster. A graceful drain reuses
// the ordinary consistency protocol (the engine revokes the dying node's
// cores with RemoveCore and the shards migrate off with their state); the
// operations here cover the parts the protocol cannot express — an
// instantaneous node *failure* (FailNode), moving the main process
// (Rehome), and retiring the executor altogether (Kill).

// FailReport summarizes the damage a node failure did to one executor.
type FailReport struct {
	// LostTasks counts tasks destroyed with the node.
	LostTasks int
	// DroppedWeight is the queued/buffered tuple weight destroyed. Weight
	// still in flight toward the dead tasks is dropped (and reported via
	// OnDropped) as it arrives, not counted here.
	DroppedWeight int
	// LostStateBytes is the resident state destroyed with the node's store.
	LostStateBytes int64
	// Rehomed reports that the main process (receiver/emitter) was on the
	// failed node and moved to a surviving task's node.
	Rehomed bool
	// Dead reports that the executor lost its last task; the caller must
	// retire it from the topology.
	Dead bool
}

// FailNode destroys, without any protocol, everything the executor had on
// node n: tasks die with their queues, the node's state store is lost,
// in-flight shard reassignments touching the node abort, and orphaned
// shards are re-routed to surviving tasks with fresh (empty) state. If the
// executor's main process was on n it rehomes to the lowest-ID surviving
// task's node — the buffered tuples of paused shards die with the old main
// process. Deterministic: victims, aborts and orphans are processed in ID
// order.
func (e *Executor) FailNode(n cluster.NodeID) FailReport {
	var rep FailReport
	localFailed := e.cfg.LocalNode == n

	// 1. Tasks on n die instantly, queues and all.
	for _, t := range e.tasks {
		if t == nil || t.failed || t.node != n {
			continue
		}
		if !t.removed {
			e.live--
		}
		t.removed, t.failed = true, true
		rep.LostTasks++
		for t.queue.len() > 0 {
			q := t.queue.pop()
			if q.label != nil {
				e.abortReassign(q.label, localFailed)
			} else {
				rep.DroppedWeight += q.tuple.Weight
				e.dropWeight(q.tuple.Weight)
			}
		}
		if t.busy {
			// The batch in service is dropped when its completion event
			// fires (finish checks t.failed); count its weight now.
			rep.DroppedWeight += t.busyWeight
		}
		t.queue, t.queuedWeight = taskQueue{}, 0
	}

	// 2. Abort in-flight reassignments that lost an endpoint — or all of
	// them when the main process died, because the paused-shard buffers
	// lived in its memory.
	var stuck []state.ShardID
	for s, r := range e.pausedBy {
		if localFailed || e.taskGone(r.src) || e.taskGone(r.dst) {
			stuck = append(stuck, s)
		}
	}
	sortShards(stuck)
	for _, s := range stuck {
		e.abortReassign(e.pausedBy[s], localFailed)
	}

	// 3. Shards owned by dead tasks re-route to survivors; their state died
	// with the node's store. The loss is billed at nominal shard size (like
	// the migration cost model: a shard that never materialized state still
	// has its configured footprint).
	var orphans []state.ShardID
	for s, id := range e.routing {
		if e.taskGone(id) {
			orphans = append(orphans, s)
		}
	}
	sortShards(orphans)
	st := e.stores[n]
	for _, s := range orphans {
		if st != nil {
			rep.LostStateBytes += int64(st.ShardBytes(s))
		}
		if alt := e.leastLoadedTask(-1); alt != nil {
			e.routing[s] = alt.id
		} else {
			delete(e.routing, s)
		}
	}

	// 4. The node's process store is gone.
	delete(e.stores, n)

	// 5. Rehome or declare the executor dead.
	if e.live == 0 {
		rep.Dead = true
		e.dead = true
	} else if localFailed {
		for _, t := range e.tasks {
			if t != nil && !t.removed {
				e.Rehome(t.node)
				rep.Rehomed = true
				break
			}
		}
	}
	return rep
}

// taskGone reports whether the task id is failed (or destroyed).
func (e *Executor) taskGone(id TaskID) bool {
	t := e.tasks[id]
	return t == nil || t.failed
}

// abortReassign cancels an in-flight shard reassignment after a failure.
// Buffered tuples are re-dispatched to the shard's surviving owner, or
// dropped when the main process holding them died (dropBuffered). Idempotent.
func (e *Executor) abortReassign(r *reassign, dropBuffered bool) {
	if r.aborted {
		return
	}
	r.aborted = true
	delete(e.pausedBy, r.shard)
	if t := e.tasks[r.src]; t != nil {
		t.pendingReassigns--
	}
	if t := e.tasks[r.dst]; t != nil {
		t.pendingReassigns--
	}
	// If the shard's routed owner died, point it at a survivor (state is
	// lost either way; the orphan pass also covers shards not re-routed
	// here).
	if id, ok := e.routing[r.shard]; ok && e.taskGone(id) {
		if alt := e.leastLoadedTask(-1); alt != nil {
			e.routing[r.shard] = alt.id
		}
	}
	buffered := r.buffered
	r.buffered = nil
	for _, q := range buffered {
		if dropBuffered {
			e.dropWeight(q.tuple.Weight)
			continue
		}
		e.dispatch(q, e.taskFor(r.shard))
	}
	e.maybeFinishRemovals()
}

// dropWeight accounts for tuple weight destroyed inside the executor and
// notifies the engine so its backpressure ledger stays consistent.
func (e *Executor) dropWeight(w int) {
	if w == 0 {
		return
	}
	e.inFlight -= w
	e.Stats.DroppedTuples += int64(w)
	if e.OnDropped != nil {
		e.OnDropped(w)
	}
}

// Rehome moves the executor's main process (receiver and emitter daemons) to
// node n. The caller guarantees the executor has — or is about to get — a
// task there; tuples already in flight to the old main process are delivered
// to the new one (the simulated network routes by executor, not address).
func (e *Executor) Rehome(n cluster.NodeID) {
	e.cfg.LocalNode = n
	e.store(n)
}

// Kill retires the executor: new arrivals are dropped (reported through
// OnDropped) while already-queued work drains — the graceful-shutdown
// contract. The caller is responsible for migrating or writing off the
// executor's state and for removing it from operator routing.
func (e *Executor) Kill() { e.dead = true }

// Dead reports whether the executor was retired by Kill or by losing its
// last task to a node failure.
func (e *Executor) Dead() bool { return e.dead }

// ResidentStateBytes sums the resident shard state across all of the
// executor's process stores (the migration bill for retiring it, or the
// loss bill for failing it).
func (e *Executor) ResidentStateBytes() int64 {
	var b int64
	for _, st := range e.stores {
		b += st.ResidentBytes()
	}
	return b
}
