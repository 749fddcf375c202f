package engine

import (
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// startSources schedules the emission loops of every source instance, in
// topology order so event sequence numbers never depend on map iteration.
func (e *Engine) startSources() {
	for _, op := range e.cfg.Topology.Sources() {
		for i, inst := range e.sources[op.ID] {
			// Offset start times so instances interleave deterministically.
			start := simtime.Duration(i) * simtime.Microsecond
			e.clock.ScheduleAfter(start, inst)
		}
	}
}

// Fire runs the instance's emission loop: a source instance is its own clock
// event, rescheduled once per firing, so emitting allocates nothing.
func (inst *sourceInstance) Fire() { inst.e.emitLoop(inst) }

// emitLoop emits one tuple batch and reschedules the instance at its share of
// the offered rate, with exponential interarrival times (the M/M/k model's
// Poisson arrivals).
func (e *Engine) emitLoop(inst *sourceInstance) {
	if e.stopped {
		return
	}
	now := e.clock.Now()
	rate := inst.drv.Rate(now) * e.rateFactor / inst.share
	if rate <= 0 {
		// Workload momentarily silent; poll again shortly.
		e.clock.ScheduleAfter(10*simtime.Millisecond, inst)
		return
	}
	interval := float64(e.cfg.Batch) / rate // seconds per batch
	e.emitOne(inst)
	wait := simtime.FromSeconds(interval * e.rng.ExpFloat64())
	if wait < simtime.Nanosecond {
		wait = simtime.Nanosecond
	}
	e.clock.ScheduleAfter(wait, inst)
}

// emitOne generates one batch and routes it downstream, subject to the
// backpressure ledger of first-hop executors.
func (e *Engine) emitOne(inst *sourceInstance) {
	now := e.clock.Now()
	key, bytes, payload := inst.drv.Sample(now)
	t := stream.Tuple{
		Key:     key,
		Weight:  e.cfg.Batch,
		Bytes:   bytes,
		Born:    now,
		Payload: payload,
	}
	// Check capacity at every first-hop destination before committing: a
	// blocked destination stalls the source (credit-based backpressure).
	for _, d := range inst.op.Downstream() {
		rt := e.ops[d]
		if rt.paused {
			continue // RC pause: tuples buffer at the engine and replay later
		}
		ex := e.targetExecutor(rt, t.Key)
		if e.inflight[ex]+t.Weight > e.cfg.MaxInFlight {
			e.r.Blocked += int64(t.Weight)
			e.blockedW[ex] += int64(t.Weight)
			if rt.opShardLoad != nil {
				// A dynamic-routing controller must see the *offered*
				// per-shard load, or a saturated executor looks deceptively
				// balanced.
				rt.opShardLoad[t.Key.OperatorShard(e.cfg.OpShards)] += float64(t.Weight)
			}
			return
		}
	}
	e.r.observeGenerated(now, t.Weight, e.cfg.WarmUp)
	for _, d := range inst.op.Downstream() {
		e.route(inst.node, d, t)
	}
}

// targetExecutor resolves operator-level routing for a key through the
// policy's routing hook (a dynamic shard map for rc, the static hash for
// everyone else).
func (e *Engine) targetExecutor(rt *opRuntime, k stream.Key) *executor.Executor {
	return rt.execs[e.pol.Route(rt, k)]
}

// route delivers tuple t to operator d's responsible executor, charging the
// network hop from the emitting node to the executor's receiver on its local
// node. During an RC repartition the operator is paused and tuples buffer at
// the engine (the upstream executors have been told to hold their output).
func (e *Engine) route(fromNode cluster.NodeID, d stream.OperatorID, t stream.Tuple) {
	rt := e.ops[d]
	now := e.clock.Now()
	// Admission stamp toward this operator: hop latency (Mark → processed)
	// feeds the per-operator anatomy window. The simulator stamps every tuple;
	// replayed tuples are re-stamped so their pause wait (already attributed
	// to RPStall) is not double-counted as queue time.
	t.Mark = now
	if !e.replaying {
		// Replayed tuples were counted offered when they first arrived and
		// buffered at the paused operator.
		rt.offeredW += int64(t.Weight)
	}
	if rt.paused {
		rt.pauseBuf = append(rt.pauseBuf, pendingTuple{from: fromNode, t: t, at: now})
		return
	}
	if rt.opShardLoad != nil {
		rt.opShardLoad[t.Key.OperatorShard(e.cfg.OpShards)] += float64(t.Weight)
	}
	ex := e.targetExecutor(rt, t.Key)
	e.inflight[ex] += t.Weight
	dl := e.takeDelivery()
	dl.ex, dl.t = ex, t
	e.cluster.SendAction(fromNode, ex.LocalNode(), t.TotalBytes(), dl)
}

// delivery is the clock event that hands a routed tuple to its executor's
// receiver once the network transfer completes. The engine owns the records:
// route takes one from the free list and the record returns itself when it
// fires. A record still on the clock when the run ends is never fired and
// never returned; it is dropped with the clock.
type delivery struct {
	e    *Engine
	ex   *executor.Executor
	t    stream.Tuple
	next *delivery // free-list link
}

// takeDelivery pops a free record. An empty list grows the way append grows
// a slice — by a slab as large as everything allocated so far — so the pool
// sizes itself to the most tuples ever in flight on the network (a replayed
// pause buffer puts a few hundred thousand there at once) in a logarithmic
// number of allocations, and a run that routes nothing allocates nothing.
func (e *Engine) takeDelivery() *delivery {
	if e.freeDeliveries == nil {
		slab := make([]delivery, max(64, e.deliveries))
		e.deliveries += len(slab)
		for i := range slab {
			slab[i].e = e
			slab[i].next, e.freeDeliveries = e.freeDeliveries, &slab[i]
		}
	}
	dl := e.freeDeliveries
	e.freeDeliveries, dl.next = dl.next, nil
	return dl
}

// Fire recycles the record, then delivers: Receive may route further tuples,
// which can reuse the record at once. A parked record is zeroed so it pins
// neither an executor nor a payload.
func (d *delivery) Fire() {
	e, ex, t := d.e, d.ex, d.t
	d.ex, d.t = nil, stream.Tuple{}
	d.next, e.freeDeliveries = e.freeDeliveries, d
	ex.Receive(t)
}

// replayPaused re-routes tuples buffered during an RC pause, charging the
// network from their original upstream nodes.
func (e *Engine) replayPaused(rt *opRuntime) {
	buf := rt.pauseBuf
	rt.pauseBuf = nil
	now := e.clock.Now()
	e.replaying = true
	for _, p := range buf {
		e.r.RepartitionReplayed += int64(p.t.Weight)
		// The wait behind the §3.3 pause is repartition stall: stamp it onto
		// the tuple and into the operator's anatomy window.
		if stall := now.Sub(p.at); stall > 0 {
			p.t.RPStall += stall
			rt.winRPStall += stall * simtime.Duration(p.t.Weight)
		}
		e.route(p.from, rt.op.ID, p.t)
	}
	e.replaying = false
}
