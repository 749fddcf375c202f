package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/state"
	"repro/internal/stream"
)

// numStripes is the lock striping of an executor's shard-state map. Shards
// hash onto stripes; one stripe lock serializes state access for all shards
// on it, which keeps per-key state safe under a many-worker pool without a
// lock per shard.
const numStripes = 64

// shardData is the resident state of one shard: the nominal byte size the
// migration cost model charges, plus the real per-key values handler-based
// operators read and write.
type shardData struct {
	bytes int
	keys  map[stream.Key]interface{}
}

type stripe struct {
	mu     sync.Mutex
	shards map[state.ShardID]*shardData
	acc    rtAccessor // the stripe's one accessor, rebound per tuple under mu
}

// worker is one core grant: a goroutine bound to a node, pulling from the
// executor's input channel. Revoking the grant closes quit; the worker exits
// after the tuple in service.
type worker struct {
	node int
	quit chan struct{}
}

// exec is one executor: a goroutine pool behind a buffered input channel of
// tuple batches (one channel operation admits a whole batch).
type exec struct {
	e    *Engine
	o    *op
	name string
	idx  int // index within the operator at placement (naming only)

	in chan []stream.Tuple

	// queuedW is the tuple weight currently queued (or committed to the
	// queue) — the credit the source's backpressure check spends against.
	queuedW atomic.Int64

	// Grant bookkeeping. Mutated only on the control goroutine (placement
	// happens before it starts); gmu makes reads from other goroutines
	// (conformance accessors, scheduler input assembly) safe.
	gmu     sync.Mutex
	local   int // main-process node
	workers []*worker
	byNode  map[int]int
	retired bool

	zShards       int // shard space (Z, or OpShards for op-sharded layouts)
	perShardBytes int
	remoteID      uint32 // wire identity when the engine runs with a Remote

	stripes [numStripes]*stripe

	// Cumulative counters (atomic: workers and sources touch them).
	arrived atomic.Int64
	dropped atomic.Int64
	batches atomic.Int64
	active  atomic.Int64

	// Window counters for ExecutorLoads (reset on the control goroutine).
	winArrived   atomic.Int64
	winProcessed atomic.Int64
	winBusyNS    atomic.Int64
	winInBytes   atomic.Int64
	winOutBytes  atomic.Int64
	blockedW     atomic.Int64
	winStart     simtime.Time // control goroutine only
}

// newExec builds an executor homed on the given node, mirroring the
// simulator's per-paradigm state layout (internal shards for elastic
// executors, operator-level shards for the baselines).
func (e *Engine) newExec(o *op, idx, local int) *exec {
	x := &exec{
		e:      e,
		o:      o,
		name:   fmt.Sprintf("%s-%d", o.meta.Name, idx),
		idx:    idx,
		local:  local,
		byNode: make(map[int]int),
		in:     make(chan []stream.Tuple, e.queueDepth()),
	}
	for i := range x.stripes {
		x.stripes[i] = &stripe{shards: make(map[state.ShardID]*shardData)}
	}
	e.remoteSeq++
	x.remoteID = e.remoteSeq
	x.zShards = e.cfg.Z
	x.perShardBytes = o.meta.StatePerShard
	if o.opSharded {
		x.zShards = e.cfg.OpShards
		if x.perShardBytes > 0 {
			total := o.meta.StatePerShard * e.cfg.Z * e.cfg.Y
			x.perShardBytes = total / e.cfg.OpShards
			if x.perShardBytes < 1 {
				x.perShardBytes = 1
			}
		}
	}
	return x
}

func (x *exec) shardOf(k stream.Key) state.ShardID {
	if x.o.opSharded {
		return state.ShardID(k.OperatorShard(x.zShards))
	}
	return state.ShardID(k.Shard(x.zShards))
}

func (x *exec) stripeFor(s state.ShardID) *stripe {
	return x.stripes[uint64(s)%numStripes]
}

// grant adds one core grant on a node (bookkeeping only; startWorkers spawns
// the goroutines once the run begins).
func (x *exec) grant(node int) {
	w := &worker{node: node, quit: make(chan struct{})}
	x.gmu.Lock()
	x.workers = append(x.workers, w)
	x.byNode[node]++
	x.gmu.Unlock()
	if x.e.started {
		x.e.wg.Add(1)
		go x.runWorker(w)
	}
}

// startWorkers launches goroutines for the grants made during placement.
func (x *exec) startWorkers() {
	x.gmu.Lock()
	ws := append([]*worker(nil), x.workers...)
	x.gmu.Unlock()
	for _, w := range ws {
		x.e.wg.Add(1)
		go x.runWorker(w)
	}
}

// revoke removes one grant on the given node; the worker exits after its
// current tuple. The executor's last grant is never revoked (an executor
// always keeps one core) unless force is set (retirement).
func (x *exec) revoke(node int, force bool) bool {
	x.gmu.Lock()
	defer x.gmu.Unlock()
	if !force && len(x.workers) <= 1 {
		return false
	}
	for i, w := range x.workers {
		if w.node == node {
			close(w.quit)
			x.workers = append(x.workers[:i], x.workers[i+1:]...)
			x.byNode[node]--
			if x.byNode[node] == 0 {
				delete(x.byNode, node)
			}
			return true
		}
	}
	return false
}

// grantsOn returns the number of grants the executor holds on node n.
func (x *exec) grantsOn(n int) int {
	x.gmu.Lock()
	defer x.gmu.Unlock()
	return x.byNode[n]
}

func (x *exec) grantCount() int {
	x.gmu.Lock()
	defer x.gmu.Unlock()
	return len(x.workers)
}

// localNode reads the main-process node under gmu: churn rehoming writes
// x.local on the control goroutine while repartition goroutines read it.
func (x *exec) localNode() int {
	x.gmu.Lock()
	defer x.gmu.Unlock()
	return x.local
}

func (x *exec) runWorker(w *worker) {
	defer x.e.wg.Done()
	defer x.e.guard("executor " + x.name)
	lane := x.e.nextLane()
	for {
		// A revoked or stopped worker leaves before taking more work, even
		// if the queue is hot.
		select {
		case <-w.quit:
			return
		case <-x.e.stopWorkers:
			return
		default:
		}
		select {
		case <-w.quit:
			return
		case <-x.e.stopWorkers:
			return
		case ts := <-x.in:
			x.process(ts, lane, w.node)
		}
	}
}

// process services one batch of tuple events: pay the modeled CPU cost in
// (virtual) wall time once for the whole batch, run the user handler per
// tuple against the striped state (the stripe lock is held across runs of
// same-stripe tuples), account per batch on the worker's counter lane, and
// emit the pooled fan-out downstream. Takes ownership of ts. wnode is the
// grant (worker) node the batch executes on — in remote mode the agent that
// burns the CPU cost.
func (x *exec) process(ts []stream.Tuple, lane, wnode int) {
	x.active.Add(1)
	defer x.active.Add(-1)

	var w int64
	var cost simtime.Duration
	traced := false
	for i := range ts {
		w += int64(ts[i].Weight)
		cost += x.costOf(&ts[i]) * simtime.Duration(ts[i].Weight)
		traced = traced || ts[i].Mark != 0
	}
	x.queuedW.Add(-w)
	if rem := x.e.remote; rem != nil {
		// Remote execution: the worker's agent burns the cost and the home
		// agent materializes the touched shards' real payloads; the measured
		// round trip (dispatch + wire + burn) is the batch's service time.
		// An unreachable agent destroys the batch with failure accounting —
		// the node's death reaches the control plane separately.
		wire := make([]uint32, len(ts))
		for i := range ts {
			wire[i] = uint32(x.shardOf(ts[i].Key))
		}
		rx := x.remoteExec()
		home := x.localNode()
		t0 := time.Now()
		var err error
		if wnode == home {
			err = rem.Process(wnode, rx, x.e.toWall(cost), wire)
		} else {
			err = rem.Process(wnode, rx, x.e.toWall(cost), nil)
			rem.StateTouch(home, rx, wire)
		}
		if err != nil {
			x.o.inflight.Add(lane, -w)
			x.o.dropFail.Add(w)
			x.dropped.Add(w)
			putTupleBuf(ts)
			return
		}
		cost = x.e.toVirtual(time.Since(t0))
	} else if cost > 0 {
		x.e.clock.Sleep(cost)
	}
	x.winBusyNS.Add(int64(cost))
	if traced {
		// A batch completes together, so every traced member experienced the
		// whole batch's slept cost as service time.
		for i := range ts {
			if ts[i].Mark != 0 {
				ts[i].Svc += cost
			}
		}
	}

	sel := 0
	if x.o.meta.Handler == nil {
		sel = int(x.o.meta.Selectivity)
	}
	var outs []stream.Tuple
	if x.o.meta.Handler != nil || sel >= 1 {
		outs = getTupleBuf(len(ts) * max(sel, 1))
	}
	var outBytes int64
	var cur *stripe
	for i := range ts {
		t := &ts[i]
		sh := x.shardOf(t.Key)
		st := x.stripeFor(sh)
		if st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			st.mu.Lock()
			cur = st
		}
		from := len(outs)
		if x.o.meta.Handler != nil {
			outs = append(outs, x.o.meta.Handler(*t, st.accessor(x, sh, t.Key))...)
		} else {
			// Cost-model-only operators still materialize the shard's nominal
			// state on first touch — the migration and failure cost models
			// (and the simulator's state.Store) charge for every served shard.
			st.shard(x, sh)
			for k := 0; k < sel; k++ {
				outs = append(outs, stream.Tuple{Key: t.Key, Weight: t.Weight, Bytes: x.o.meta.OutBytes, Born: t.Born})
			}
		}
		for j := from; j < len(outs); j++ {
			if outs[j].Bytes == 0 {
				outs[j].Bytes = x.o.meta.OutBytes
			}
			if outs[j].Weight == 0 {
				outs[j].Weight = t.Weight
			}
			if outs[j].Born == 0 {
				outs[j].Born = t.Born
			}
			if t.Mark != 0 {
				// Outputs of a traced input inherit the trace and its stage
				// accumulators (re-stamped to the emission time below).
				outs[j].Mark = t.Mark
				outs[j].Svc += t.Svc
				outs[j].RPStall += t.RPStall
				outs[j].MGStall += t.MGStall
			}
			outBytes += int64(outs[j].TotalBytes())
		}
	}
	if cur != nil {
		cur.mu.Unlock()
	}
	x.winOutBytes.Add(outBytes)

	now := x.e.vnow()
	x.winProcessed.Add(w)
	x.batches.Add(1)
	x.o.inflight.Add(lane, -w)
	x.o.processed.Add(lane, w)

	warm := simtime.Duration(now) >= x.e.cfg.WarmUp
	if traced {
		// Downstream admission stamp: the next operator's hop window starts
		// when its input is emitted, not when the trace was born.
		for j := range outs {
			if outs[j].Mark != 0 {
				outs[j].Mark = now
			}
		}
		if warm {
			// Per-operator anatomy: hop latency (admission → processed) with
			// this batch's slept cost as the service component; the residual
			// is task-queue wait.
			for i := range ts {
				if ts[i].Mark != 0 {
					x.o.anat.Observe(lane, metrics.StageObservation{
						Total:   now.Sub(ts[i].Mark),
						Service: cost,
						Weight:  ts[i].Weight,
					})
				}
			}
		}
	}
	if warm && (x.o.measured || x.o.sink) {
		cell := &x.e.coll.cells[lane&(numLanes-1)]
		cell.mu.Lock()
		if x.o.measured {
			cell.procTotal += w
			cell.procWin += w
		}
		if x.o.sink {
			observeLatency(ts, now, cell.lat, cell.winLat)
		}
		if x.o.sink && traced {
			for i := range ts {
				if ts[i].Mark != 0 {
					obs := metrics.StageObservation{
						Total:       now.Sub(ts[i].Born),
						Service:     ts[i].Svc,
						Repartition: ts[i].RPStall,
						Migration:   ts[i].MGStall,
						Weight:      ts[i].Weight,
					}
					cell.stage.Observe(obs)
					cell.winStage.Observe(obs)
				}
			}
		}
		cell.mu.Unlock()
	}

	for _, d := range x.o.meta.Downstream() {
		x.e.deliver(x.e.ops[d], outs, true, lane)
	}
	putTupleBuf(outs)
	putTupleBuf(ts)
}

// observeLatency records a sink batch's end-to-end latency into lat and win
// with one observation per run of consecutive tuples sharing a Born: a source
// flush stamps all its tuples alike, so a batch is usually a few runs, not
// len(ts) samples. Buckets, Count, Sum, Min and Max equal those of per-tuple
// observation; only the float Mean accumulator can differ in its last bits.
func observeLatency(ts []stream.Tuple, now simtime.Time, lat, win *metrics.Histogram) {
	for i := 0; i < len(ts); {
		born, w := ts[i].Born, ts[i].Weight
		for i++; i < len(ts) && ts[i].Born == born; i++ {
			w += ts[i].Weight
		}
		d := now.Sub(born)
		lat.Observe(d, w)
		win.Observe(d, w)
	}
}

// streamUnit is the probe tuple for cost-model estimates (fallback μ).
func streamUnit(x *exec) stream.Tuple {
	return stream.Tuple{Bytes: x.o.meta.OutBytes, Weight: 1}
}

func (x *exec) costOf(t *stream.Tuple) simtime.Duration {
	if x.o.meta.Cost == nil {
		return 0
	}
	// Cost models price one tuple; weight scales outside.
	if t.Weight == 1 {
		return x.o.meta.Cost(*t)
	}
	unit := *t
	unit.Weight = 1
	return x.o.meta.Cost(unit)
}

// shard returns (creating with the nominal byte size) the shard's resident
// state. Caller holds the stripe lock.
func (st *stripe) shard(x *exec, s state.ShardID) *shardData {
	d := st.shards[s]
	if d == nil {
		d = &shardData{bytes: x.perShardBytes, keys: make(map[stream.Key]interface{})}
		st.shards[s] = d
	}
	return d
}

// rtAccessor implements stream.StateAccessor over the striped map.
type rtAccessor struct {
	d *shardData
	k stream.Key
}

// accessor rebinds the stripe's accessor to (s, k) and hands out its pointer,
// so the per-tuple handler call boxes nothing. The stripe lock is held for
// the whole handler invocation, which is as long as the accessor is valid
// (stream.StateAccessor).
func (st *stripe) accessor(x *exec, s state.ShardID, k stream.Key) stream.StateAccessor {
	st.acc = rtAccessor{d: st.shard(x, s), k: k}
	return &st.acc
}

func (a *rtAccessor) Get() interface{}  { return a.d.keys[a.k] }
func (a *rtAccessor) Set(v interface{}) { a.d.keys[a.k] = v }

// stateBytes returns the executor's resident state size: nominal bytes for
// every shard materialized so far.
func (x *exec) stateBytes() int64 {
	var total int64
	for _, st := range x.stripes {
		st.mu.Lock()
		for _, d := range st.shards {
			total += int64(d.bytes)
		}
		st.mu.Unlock()
	}
	return total
}

// peekShardBytes returns a shard's resident byte size without moving it
// (0 if never materialized).
func (x *exec) peekShardBytes(s state.ShardID) int {
	st := x.stripeFor(s)
	st.mu.Lock()
	defer st.mu.Unlock()
	if d := st.shards[s]; d != nil {
		return d.bytes
	}
	return 0
}

// takeShard removes and returns a shard's state (nil if never materialized).
func (x *exec) takeShard(s state.ShardID) *shardData {
	st := x.stripeFor(s)
	st.mu.Lock()
	defer st.mu.Unlock()
	d := st.shards[s]
	delete(st.shards, s)
	return d
}

// putShard installs a migrated shard, merging keys if the destination
// already materialized it.
func (x *exec) putShard(s state.ShardID, d *shardData) {
	if d == nil {
		return
	}
	st := x.stripeFor(s)
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.shards[s]
	if cur == nil {
		st.shards[s] = d
		return
	}
	for k, v := range d.keys {
		cur.keys[k] = v
	}
}

// clampIdx guards a routing decision computed against a snapshot that may
// have been superseded mid-flight (executor retirement shrinks the set).
func clampIdx(idx, n int) int {
	if idx >= 0 && idx < n {
		return idx
	}
	if n <= 0 {
		return 0
	}
	return ((idx % n) + n) % n
}

// routeIdx resolves a tuple's destination executor against a snapshot. For
// the built-in policies the decision is precomputed: dynamic-routing
// operators carry a flat shard→executor table rebuilt at every snapshot swap
// and everything else uses the static operator-level hash — no policy
// dispatch, no allocation. Third-party policies (unknown paradigm) keep the
// general Route call with the mid-flight clamp.
func (e *Engine) routeIdx(o *op, s *opSnap, k stream.Key) int {
	if e.fastRoute {
		if s.table != nil {
			return int(s.table[k.OperatorShard(len(s.table))])
		}
		return k.ExecutorIndex(len(s.execs))
	}
	return clampIdx(e.pol.Route(o, k), len(s.execs))
}

// sendBatch hands a pool-backed batch to one executor's queue: ownership of
// ts transfers to the consumer (a worker, a retiree reaper, or the shutdown
// sweep), which releases it. Per-batch counters land on the caller's lane.
// Blocks on a full queue (natural backpressure); a shutdown while blocked
// accounts the whole batch as residue.
func (e *Engine) sendBatch(o *op, x *exec, ts []stream.Tuple, lane int) {
	if len(ts) == 0 {
		putTupleBuf(ts)
		return
	}
	var w, bytes int64
	for i := range ts {
		w += int64(ts[i].Weight)
		bytes += int64(ts[i].TotalBytes())
	}
	o.inflight.Add(lane, w)
	x.arrived.Add(w)
	x.winArrived.Add(w)
	x.winInBytes.Add(bytes)
	x.queuedW.Add(w)
	select {
	case x.in <- ts:
	case <-e.stopWorkers:
		o.inflight.Add(lane, -w)
		o.dropShut.Add(w)
		x.dropped.Add(w)
		x.queuedW.Add(-w)
		putTupleBuf(ts)
	}
}

// deliver routes a batch of tuples into an operator, grouping by destination
// executor so each destination pays one channel operation. Inter-operator
// edges block on a full queue (natural backpressure along a DAG); replayed
// and redirected tuples use the same path. The caller keeps ownership of ts
// (groups are copied into pooled buffers).
func (e *Engine) deliver(o *op, ts []stream.Tuple, countAdmit bool, lane int) {
	if len(ts) == 0 {
		return
	}
	if countAdmit {
		var w int64
		for i := range ts {
			w += int64(ts[i].Weight)
		}
		o.admitted.Add(lane, w)
	}
	if o.paused.Load() {
		o.bufferAll(ts)
		return
	}
	if o.dynRouting {
		o.recordShardLoadBatch(ts)
	}
	s := o.snap.Load()
	if len(s.execs) == 1 {
		buf := getTupleBuf(len(ts))
		buf = append(buf, ts...)
		e.sendBatch(o, s.execs[0], buf, lane)
		return
	}
	idx := getIdxBuf(len(ts))
	for i := range ts {
		idx = append(idx, int32(e.routeIdx(o, s, ts[i].Key)))
	}
	// Gather per destination, preserving arrival order within each group so
	// a single-worker destination still sees per-key FIFO.
	for xi := range s.execs {
		var buf []stream.Tuple
		for i := range ts {
			if int(idx[i]) != xi {
				continue
			}
			if buf == nil {
				buf = getTupleBuf(len(ts))
			}
			buf = append(buf, ts[i])
		}
		if buf != nil {
			e.sendBatch(o, s.execs[xi], buf, lane)
		}
	}
	putIdxBuf(idx)
}

// replay re-injects tuples buffered during a pause; they were already
// admitted once.
func (e *Engine) replay(o *op, ts []stream.Tuple, lane int) {
	e.deliver(o, ts, false, lane)
}
