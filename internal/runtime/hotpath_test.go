package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// Tests for the batched hot path: buffer pooling, striped counters, and the
// §3.3 repartition protocol's interaction with in-flight batches.

// TestSinkLatencyPerBornRun checks that the sink's one observation per run of
// equal Born records the same distribution as one observation per tuple:
// identical Count, Sum, Min, Max and bucket of every ranked sample, in both
// the cumulative and the window histogram.
func TestSinkLatencyPerBornRun(t *testing.T) {
	now := simtime.Time(10 * simtime.Millisecond)
	a := now.Add(-50 * simtime.Microsecond)
	b := now.Add(-3 * simtime.Millisecond)
	ts := []stream.Tuple{
		{Born: a, Weight: 1}, {Born: a, Weight: 2},
		{Born: b, Weight: 1}, {Born: b, Weight: 3}, {Born: b, Weight: 1},
		{Born: a, Weight: 2},
	}
	want := metrics.NewHistogram()
	for _, tu := range ts {
		want.Observe(now.Sub(tu.Born), tu.Weight)
	}
	lat, win := metrics.NewHistogram(), metrics.NewHistogram()
	observeLatency(ts, now, lat, win)
	for name, h := range map[string]*metrics.Histogram{"lat": lat, "winLat": win} {
		if h.Count() != want.Count() || h.Sum() != want.Sum() || h.Min() != want.Min() || h.Max() != want.Max() {
			t.Fatalf("%s: count/sum/min/max %d/%v/%v/%v, per-tuple %d/%v/%v/%v", name,
				h.Count(), h.Sum(), h.Min(), h.Max(), want.Count(), want.Sum(), want.Min(), want.Max())
		}
		for k := uint64(1); k <= want.Count(); k++ {
			q := float64(k) / float64(want.Count())
			if got, exp := h.Quantile(q-1e-9), want.Quantile(q-1e-9); got != exp {
				t.Fatalf("%s: sample of rank %d in bucket ending %v, per-tuple %v", name, k, got, exp)
			}
		}
	}
}

// TestStripedCounterFold checks that concurrent adds across all lanes fold to
// the exact total once the writers quiesce, including out-of-range lane
// indices (they must mask, not panic or misattribute).
func TestStripedCounterFold(t *testing.T) {
	var c stripedInt64
	const (
		writers = 16
		perLane = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < perLane; i++ {
				c.Add(lane, 3)
			}
		}(g) // lanes 0..15: half exercise the mask path (numLanes is 8)
	}
	wg.Wait()
	if got, want := c.Load(), int64(writers*perLane*3); got != want {
		t.Fatalf("fold = %d, want %d", got, want)
	}
	c.Add(-1, 5) // negative lane must mask too
	if got, want := c.Load(), int64(writers*perLane*3+5); got != want {
		t.Fatalf("fold after negative lane = %d, want %d", got, want)
	}
}

// TestRepartitionUnderBatching drives the pause→buffer→replay half of the
// §3.3 protocol directly against a built (never Run) runtime: a batch
// delivered under pause must land in the pause buffer whole — admitted,
// nothing in flight — and the replay after unpause must re-route it against
// the live table preserving per-executor arrival order, with every tuple
// accounted for. It then checks the protocol at saturation, where sources
// hold executors closed for lack of credit while snapshots are swapped: a
// closed flag must not outlive the executor set it was indexed against, and
// a saturated run across a repartition must keep its ledger and keep
// processing.
func TestRepartitionUnderBatching(t *testing.T) {
	rt, _, err := BuildScenario(quickSpec(), "rc", 42, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := rt.opOrder[0]
	snap := o.snap.Load()
	if snap.table == nil {
		t.Fatal("rc operator has no flat routing table")
	}

	const n = 100
	batch := getTupleBuf(n)
	for i := 0; i < n; i++ {
		batch = append(batch, stream.Tuple{
			Key: stream.Key(i * 7), Seq: uint64(i), Weight: 1, Bytes: 8,
		})
	}

	// Phase 1: paused operator. The whole batch must buffer, not queue.
	o.paused.Store(true)
	rt.deliver(o, batch, true, 0)
	if got := o.admitted.Load(); got != n {
		t.Fatalf("admitted = %d, want %d (admission precedes the pause check)", got, n)
	}
	if got := o.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d under pause, want 0", got)
	}
	o.bufMu.Lock()
	buffered := len(o.pauseBuf)
	o.bufMu.Unlock()
	if buffered != n {
		t.Fatalf("pause buffer holds %d tuples, want %d", buffered, n)
	}

	// Phase 2: unpause and replay, the runRepartition tail.
	o.paused.Store(false)
	o.bufMu.Lock()
	buf := o.pauseBuf
	o.pauseBuf = nil
	o.bufMu.Unlock()
	rt.replay(o, buf, 0)
	putTupleBuf(batch)

	// Replay must not double-admit.
	if got := o.admitted.Load(); got != n {
		t.Fatalf("admitted after replay = %d, want %d", got, n)
	}
	if got := o.inflight.Load(); got != n {
		t.Fatalf("inflight after replay = %d, want %d", got, n)
	}

	// Drain the executor queues as a worker would and check conservation and
	// order: each executor sees its tuples in the original emission order,
	// and each tuple landed where the live table routes it.
	var drained int64
	for xi, x := range snap.execs {
		var lastSeq uint64
		first := true
		for {
			select {
			case ts := <-x.in:
				for i := range ts {
					tt := ts[i]
					drained += int64(tt.Weight)
					if want := rt.routeIdx(o, snap, tt.Key); want != xi {
						t.Fatalf("seq %d on executor %d, table routes to %d", tt.Seq, xi, want)
					}
					if !first && tt.Seq <= lastSeq {
						t.Fatalf("executor %d saw seq %d after %d: order lost", xi, tt.Seq, lastSeq)
					}
					lastSeq, first = tt.Seq, false
				}
				o.inflight.Add(0, -int64(len(ts)))
				x.queuedW.Add(-int64(len(ts)))
				putTupleBuf(ts)
				continue
			default:
			}
			break
		}
	}
	if drained != n {
		t.Fatalf("drained %d tuples, want %d", drained, n)
	}
	if got := o.inflight.Load(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}

	closedFlagsFollowExecutorSet(t)

	// Saturated: offered about three times the seven executors' capacity
	// (50 µs a tuple), a mid-run repartition swaps the snapshot while the
	// source is being refused credit. The modelled cost keeps the executors,
	// not the source loop, the bottleneck even under the race detector; the
	// short drain bounds the wall time the replayed pause buffer can add.
	sat, err := New(rcMicroConfig(t, 4e5, 50*simtime.Microsecond, 1),
		Options{Clock: RealClock(), DrainTimeout: 200 * time.Millisecond, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	so := sat.opOrder[0]
	moves := twoMovesFrom0(so.snap.Load().routing)
	sat.AtVirtual(simtime.Duration(50*time.Millisecond), func() { sat.startRepartition(so, moves) })
	r, err := sat.Run(simtime.Duration(150 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if r.Repartitions < 1 {
		t.Fatalf("saturated run repartitioned %d times, want >= 1", r.Repartitions)
	}
	led := sat.Ledger()
	if !led.Conserved() {
		t.Fatalf("saturated ledger not conserved across repartition: %v", led)
	}
	if led.Processed == 0 {
		t.Fatalf("saturated run processed nothing: %v", led)
	}
	if led.Blocked == 0 {
		t.Fatalf("saturated run blocked nothing: backpressure never engaged: %v", led)
	}
}

// closedFlagsFollowExecutorSet closes executor index 0 at the source, then
// publishes a snapshot that puts a different executor at that index (as a
// retirement re-indexes survivors) with load inside the reopen margin. That
// executor was never refused, so it must take tuples up to its credit; a
// closed flag carried over from the superseded set would shut it out.
func closedFlagsFollowExecutorSet(t *testing.T) {
	t.Helper()
	e, s, o := idleSource(t, 4096, 1)
	snap := o.snap.Load()
	a, b := snap.execs[0], snap.execs[1]
	a.queuedW.Add(e.creditW)
	s.emitBatch(2000)
	if a.blockedW.Load() == 0 {
		t.Fatal("executor 0 was never refused")
	}
	for _, x := range snap.execs {
		drainQueue(o, x, nil)
	}
	a.queuedW.Add(-e.creditW)

	swapped := append([]*exec{b, a}, snap.execs[2:]...)
	o.snap.Store(newOpSnap(swapped, snap.routing))
	const room = 64 // inside the one-flush reopen margin
	b.queuedW.Add(e.creditW - room)
	s.emitBatch(4000)
	if got := total(drainQueue(o, b, nil)); got != room {
		t.Fatalf("executor now at index 0 took %d tuples, want its remaining credit %d", got, room)
	}
	for _, x := range swapped {
		drainQueue(o, x, nil)
	}
}

// TestConformanceBatchedSaturated runs a short saturated batched workload on
// the real clock (the hot-path bench topology) and checks the ledger contract
// holds under maximum admission pressure. Named into the conformance family
// so CI's -race smoke covers the batched path end to end.
func TestConformanceBatchedSaturated(t *testing.T) {
	pol, err := policy.ByName("elasticutor")
	if err != nil {
		t.Fatal(err)
	}
	setup := core.MicroSetup(core.MicroOptions{
		Policy:          pol,
		Nodes:           1,
		SourceExecutors: 1,
		Y:               1,
		Spec: workload.Spec{
			Keys: 1024, Skew: 0.5, TupleBytes: 64,
			CPUCost: 0, ShardStateKB: 1,
		},
		Rate:  1e6,
		Batch: 1,
		Seed:  1,
	})
	setup.Config.FixedCores = 1
	rt, err := New(setup.Config, Options{Clock: RealClock(), DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(simtime.Duration(150 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	led := rt.Ledger()
	if !led.Conserved() {
		t.Fatalf("ledger not conserved under saturation: %+v", led)
	}
	if led.Processed == 0 {
		t.Fatal("saturated run processed nothing")
	}
	if led.Blocked == 0 {
		t.Fatal("saturated run blocked nothing: backpressure never engaged")
	}
}
