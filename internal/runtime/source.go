package runtime

import (
	goruntime "runtime"
	"slices"

	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// srcFlushTuples caps the size of one source-emitted batch: a group reaching
// this many tuples is flushed mid-tick, so queue credit is consumed (and
// backpressure observed) at a finer grain than a whole tick's emission.
const srcFlushTuples = 128

// traceEvery is the latency-anatomy sampling stride: one in every traceEvery
// emitted batch events is stamped traced (Tuple.Mark) and carries stage
// accumulators through the dataflow. Untraced batches pay one branch per
// tuple on the hot path; the full attribution cost is amortized 1-in-N.
const traceEvery = 8

// srcDst is the source's per-destination routing scratch, reused tick to
// tick: one pending (not yet flushed) tuple group per destination executor,
// the blocked-weight accumulator folded into the executor counters once per
// tick, and the closed flags of executors refused for lack of credit.
type srcDst struct {
	o       *op
	snap    *opSnap          // destination snapshot, re-read each tick
	paused  bool             // pause flag, re-read each tick
	route   int              // executor index of the tuple being admitted
	groups  [][]stream.Tuple // per executor index; pool-backed
	pendW   []int64          // weight pending in groups (credit accounting)
	blocked []int64          // blocked weight per executor this tick
	closed  []bool           // refused; reopens one flush below credit
	execs   []*exec          // executor set the closed flags index
	buf     []stream.Tuple   // tuples bound for a paused destination (src-owned)
}

// refresh re-reads the destination's snapshot and pause flag for one tick's
// emissions and sizes the per-executor scratch to the live executor set.
// Closed flags outlive the tick, but only while the executor set stays the
// same: a flag indexed against a superseded set could otherwise shut out an
// executor that was never refused.
func (d *srcDst) refresh() {
	d.snap = d.o.snap.Load()
	d.paused = d.o.paused.Load()
	n := len(d.snap.execs)
	if cap(d.groups) < n {
		d.groups = make([][]stream.Tuple, n)
		d.pendW = make([]int64, n)
		d.blocked = make([]int64, n)
		d.closed = make([]bool, n)
	} else {
		d.groups = d.groups[:n]
		d.pendW = d.pendW[:n]
		d.blocked = d.blocked[:n]
		d.closed = d.closed[:n]
	}
	if !slices.Equal(d.execs, d.snap.execs) {
		clear(d.closed)
		d.execs = d.snap.execs
	}
}

// src drives one source operator as a token-bucket emitter: a ticker refills
// tokens at the (possibly scenario-phased) offered rate, and each tick's
// accumulated emissions are routed as executor-grouped batches subject to
// credit-based backpressure at every first-hop destination — the same
// admission rule the simulator applies.
type src struct {
	e        *Engine
	op       *stream.Operator
	drv      *engine.SourceDriver
	lane     int
	traceSeq uint64
	dsts     []*srcDst
}

func (s *src) run() {
	e := s.e
	defer e.wg.Done()
	defer e.guard("source " + s.op.Name)
	s.lane = e.nextLane()
	for _, d := range s.op.Downstream() {
		s.dsts = append(s.dsts, &srcDst{o: e.ops[d]})
	}
	tick := e.clock.Ticker(e.opt.SourceTick)
	defer tick.Stop()
	batch := float64(e.cfg.Batch)
	tokens := 0.0
	last := e.clock.Now()
	for {
		select {
		case <-e.stopSrc:
			return
		case <-tick.C():
			now := e.clock.Now()
			dt := now.Sub(last).Seconds()
			last = now
			if dt <= 0 {
				continue
			}
			rate := s.drv.Rate(e.vnow()) * e.rateFactorNow()
			if rate <= 0 {
				continue
			}
			tokens += rate * dt
			// Burst cap: a stalled scheduler must not dump an unbounded
			// backlog of tokens when it wakes. Two ticks' worth of rate (or
			// a 64-batch floor) keeps saturating sources saturating while
			// the queue credit stays the real regulator.
			if burst := max(batch*64, 2*rate*dt); tokens > burst {
				tokens = burst
			}
			if n := int(tokens / batch); n > 0 {
				tokens -= float64(n) * batch
				s.emitBatch(n)
			}
		}
	}
}

// emitBatch samples and routes n batch-weight emissions, grouping tuples by
// destination executor and flushing each group as one channel send. Admission
// is all-or-none per tuple across every unpaused first-hop destination
// (credit-based backpressure, the simulator's rule); pending group weight
// counts against the queue credit so an unflushed group cannot oversubscribe
// a destination. An executor refused for lack of credit stays closed until
// its queued plus pending weight falls a flush's worth below the credit (see
// reopenW), so it is refilled by full batches rather than a trickle. Paused
// destinations buffer through deliver, as before. Blocked and generated
// weights accumulate locally and fold into the shared counters once per tick.
func (s *src) emitBatch(n int) {
	e := s.e
	now := e.vnow()
	warm := simtime.Duration(now) >= e.cfg.WarmUp
	var generated, blockedTotal int64
	for _, d := range s.dsts {
		d.refresh()
	}
	reopen := e.reopenW()
	for i := 0; i < n; i++ {
		key, bytes, payload := s.drv.Sample(now)
		t := stream.Tuple{
			Key:     key,
			Weight:  e.cfg.Batch,
			Bytes:   bytes,
			Born:    now,
			Payload: payload,
		}
		s.traceSeq++
		if s.traceSeq%traceEvery == 0 {
			t.Mark = now // sampled: carries the latency-anatomy accumulators
		}
		w := int64(t.Weight)
		full := false
		for _, d := range s.dsts {
			if d.paused {
				continue // repartition pause: the tuple buffers below
			}
			xi := e.routeIdx(d.o, d.snap, t.Key)
			d.route = xi
			load := d.snap.execs[xi].queuedW.Load() + d.pendW[xi]
			if d.closed[xi] && load < reopen {
				d.closed[xi] = false
			}
			if d.closed[xi] || load >= e.creditW {
				d.blocked[xi] += w
				blockedTotal += w
				if d.o.dynRouting {
					// The controller must see the offered per-shard load, or
					// a saturated executor looks deceptively balanced.
					d.o.recordShardLoad(t.Key, t.Weight)
				}
				if !d.closed[xi] {
					// Closing: hand the refused executor's pending group to
					// its worker, which has the work. Every other group
					// stays pending and flushes full or at tick end.
					d.closed[xi] = true
					s.flush(d, xi)
				}
				full = true
				break
			}
		}
		if full {
			// Refused for lack of credit. Hand over the core: a full queue
			// means the worker has runnable work, and at GOMAXPROCS=1 it
			// would otherwise only run on async preemption while this loop
			// wades through the remaining (blocked) token budget. The yield
			// turns the blocked tail into fill→drain ping-pong at queue-
			// credit grain.
			goruntime.Gosched()
			continue
		}
		if warm {
			generated += w
		}
		for _, d := range s.dsts {
			if d.paused {
				d.buf = append(d.buf, t)
				continue
			}
			xi := d.route
			if d.groups[xi] == nil {
				d.groups[xi] = getTupleBuf(srcFlushTuples)
			}
			d.groups[xi] = append(d.groups[xi], t)
			d.pendW[xi] += w
			if len(d.groups[xi]) >= srcFlushTuples {
				s.flush(d, xi)
			}
		}
	}
	s.flushPending()
	for _, d := range s.dsts {
		if len(d.buf) > 0 {
			e.deliver(d.o, d.buf, true, s.lane)
			clear(d.buf)
			d.buf = d.buf[:0]
		}
		for xi, bw := range d.blocked {
			if bw > 0 {
				d.snap.execs[xi].blockedW.Add(bw)
				d.blocked[xi] = 0
			}
		}
	}
	if generated > 0 {
		e.generated.Add(generated)
	}
	if blockedTotal > 0 {
		e.blocked.Add(blockedTotal)
	}
}

// reopenW is the load (queued plus pending weight) below which a closed
// executor takes tuples again: one source flush of margin under the credit,
// clamped to half the credit so a small-credit engine still reopens.
func (e *Engine) reopenW() int64 {
	return e.creditW - min(int64(srcFlushTuples)*int64(e.cfg.Batch), e.creditW/2)
}

// flushPending sends every non-empty pending group across all destinations.
func (s *src) flushPending() {
	for _, d := range s.dsts {
		for xi := range d.groups {
			if d.groups[xi] != nil {
				s.flush(d, xi)
			}
		}
	}
}

// flush sends one pending group. The group was routed against the snapshot
// read at tick start; if the destination has since paused or swapped its
// snapshot (repartition commit, executor retirement), the group re-enters
// through deliver — which buffers under a pause and re-routes against the
// live table — so a mid-tick §3.3 protocol never sees stale-routed sends.
func (s *src) flush(d *srcDst, xi int) {
	g := d.groups[xi]
	d.groups[xi] = nil
	d.pendW[xi] = 0
	if len(g) == 0 {
		putTupleBuf(g)
		return
	}
	e := s.e
	if d.o.paused.Load() || d.o.snap.Load() != d.snap {
		e.deliver(d.o, g, true, s.lane)
		putTupleBuf(g)
		return
	}
	var w int64
	for i := range g {
		w += int64(g[i].Weight)
	}
	d.o.admitted.Add(s.lane, w)
	e.sendBatch(d.o, d.snap.execs[xi], g, s.lane)
}
