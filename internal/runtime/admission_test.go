package runtime

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// Tests for the source's credit admission: a refusal flushes only the refused
// executor's group, and a refused executor reopens one flush below credit.

// rcMicroConfig is the micro topology under rc on one 8-core node: the
// source feeds one operator routed through a shard table over seven
// executors (one core stays with the source), at the given per-tuple cost.
func rcMicroConfig(t testing.TB, rate float64, cost simtime.Duration, batch int) engine.Config {
	t.Helper()
	pol, err := policy.ByName("rc")
	if err != nil {
		t.Fatal(err)
	}
	return core.MicroSetup(core.MicroOptions{
		Policy:          pol,
		Nodes:           1,
		SourceExecutors: 1,
		Spec: workload.Spec{
			Keys: 1024, Skew: 0.5, TupleBytes: 64,
			CPUCost: cost, ShardStateKB: 1,
		},
		Rate:  rate,
		Batch: batch,
		Seed:  1,
	}).Config
}

// idleSource builds an idle (never Run) rcMicroConfig runtime and returns its
// source wired to the operator as run() wires it. Tests drive emitBatch tick
// by tick and play the workers' side themselves, so nothing drains a queue
// they do not drain.
func idleSource(t testing.TB, queueDepth, batch int) (*Engine, *src, *op) {
	t.Helper()
	e, err := New(rcMicroConfig(t, 1000, 0, batch), Options{Clock: RealClock(), QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	s := e.sources[0]
	for _, d := range s.op.Downstream() {
		s.dsts = append(s.dsts, &srcDst{o: e.ops[d]})
	}
	o := s.dsts[0].o
	if n := len(o.snap.Load().execs); n != 7 || o.snap.Load().table == nil {
		t.Fatalf("want 7 table-routed executors, got %d (table %v)", n, o.snap.Load().table != nil)
	}
	return e, s, o
}

// drainQueue receives every batch queued at x, un-accounts it as a worker
// would, releases the buffer, and returns the batch sizes in arrival order.
// sizes is reused (callers pass a slice of spare capacity to stay
// allocation-free).
func drainQueue(o *op, x *exec, sizes []int) []int {
	sizes = sizes[:0]
	for {
		select {
		case ts := <-x.in:
			var w int64
			for i := range ts {
				w += int64(ts[i].Weight)
			}
			o.inflight.Add(0, -w)
			x.queuedW.Add(-w)
			sizes = append(sizes, len(ts))
			putTupleBuf(ts)
		default:
			return sizes
		}
	}
}

func total(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestConformanceOverloadKeepsBatchesFull holds one executor near credit with
// no worker draining it and drives 10 000 tokens through emitBatch. The other
// executors must see only full (srcFlushTuples) batches apart from the end-
// of-tick flush, and the held executor must get exactly its remaining credit,
// flushed once when it closes. Then the reopen margin: freeing less than one
// flush of credit leaves the executor closed; freeing more reopens it.
func TestConformanceOverloadKeepsBatchesFull(t *testing.T) {
	const depth = 16384 // the others never reach credit within 10 000 tokens
	e, s, o := idleSource(t, depth, 1)
	execs := o.snap.Load().execs
	held := execs[0]
	const room = 300 // tuples the held executor admits before it closes
	held.queuedW.Add(e.creditW - room)

	s.emitBatch(10000)

	sizes := drainQueue(o, held, nil)
	if got := total(sizes); got != room {
		t.Fatalf("held executor received %d tuples (batches %v), want its remaining credit %d", got, sizes, room)
	}
	partial := 0
	for _, n := range sizes {
		if n < srcFlushTuples {
			partial++
		}
	}
	if partial != 1 {
		t.Fatalf("held executor batches %v: want exactly one closing flush below %d", sizes, srcFlushTuples)
	}
	if held.blockedW.Load() == 0 {
		t.Fatal("held executor was never refused")
	}
	for xi, x := range execs[1:] {
		got := drainQueue(o, x, nil)
		if len(got) < 2 {
			t.Fatalf("executor %d received %d batches; the test needs more", xi+1, len(got))
		}
		for i, n := range got[:len(got)-1] {
			if n != srcFlushTuples {
				t.Fatalf("executor %d batch %d of %d holds %d tuples: a refusal elsewhere flushed it early",
					xi+1, i, len(got), n)
			}
		}
		if last := got[len(got)-1]; last > srcFlushTuples {
			t.Fatalf("executor %d end-of-tick batch holds %d tuples", xi+1, last)
		}
	}

	// Put the held executor back at credit (still closed), then free one
	// flush's worth: not enough to reopen it. Freeing a second flush's
	// worth is, and it refills to credit.
	held.queuedW.Add(room - srcFlushTuples)
	s.emitBatch(4000)
	if got := drainQueue(o, held, nil); len(got) != 0 {
		t.Fatalf("held executor reopened one flush below credit: received %v", got)
	}
	held.queuedW.Add(-srcFlushTuples)
	s.emitBatch(4000)
	if got := total(drainQueue(o, held, nil)); got != 2*srcFlushTuples {
		t.Fatalf("held executor took %d tuples after reopening, want %d", got, 2*srcFlushTuples)
	}
	for _, x := range execs[1:] {
		drainQueue(o, x, nil)
	}
}

// TestConformanceSmallCreditSaturated runs a saturated engine whose queue
// credit is below two source flushes (QueueDepth 16 × Batch 8 = 128 weight,
// a flush being 128 tuples × 8). The reopen margin's clamp to half the credit
// is what lets a refused executor take tuples again; without it the executor
// closes once and the run stops after one credit's worth.
func TestConformanceSmallCreditSaturated(t *testing.T) {
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
		Rate:  4e6,
		Batch: 8,
		Seed:  1,
	})
	setup.Config.FixedCores = 1
	rt, err := New(setup.Config, Options{Clock: RealClock(), DrainTimeout: 2 * time.Second, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rt.creditW >= 2*srcFlushTuples*int64(setup.Config.Batch) {
		t.Fatalf("credit %d is not small: the test needs it below two flushes", rt.creditW)
	}
	if _, err := rt.Run(simtime.Duration(150 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	led := rt.Ledger()
	if !led.Conserved() {
		t.Fatalf("ledger not conserved: %+v", led)
	}
	if led.Blocked == 0 {
		t.Fatal("run blocked nothing: the credit edge was never reached")
	}
	if floor := 16 * rt.creditW; led.Processed < floor {
		t.Fatalf("processed %d weight, want at least %d: a refused executor never reopened", led.Processed, floor)
	}
}
