package executor

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/state"
	"repro/internal/stream"
)

// checkRecordsClean asserts the ownership rules of the executor's reusable
// event records at a safe point: an idle task holds no batch, every vacated
// queue slot is zero, every parked transit record is zero and parked once —
// so a recycled record can leak neither a previous tuple's payload nor a
// finished reassignment's label.
func checkRecordsClean(t *testing.T, ex *Executor) (parkedTransits int) {
	t.Helper()
	zero := queued{}
	for _, tk := range ex.tasks {
		if tk == nil {
			continue
		}
		if !tk.busy && tk.serving != zero {
			t.Fatalf("task %d is idle but still holds a batch: %+v", tk.id, tk.serving)
		}
		q := &tk.queue
		for i := range q.buf {
			live := (i-q.head)&(len(q.buf)-1) < q.n
			if !live && q.buf[i] != zero {
				t.Fatalf("task %d: vacated queue slot %d not zeroed: %+v", tk.id, i, q.buf[i])
			}
		}
	}
	seen := make(map[*transit]bool)
	for tr := ex.freeTransits; tr != nil; tr = tr.next {
		if seen[tr] {
			t.Fatal("a transit record is on the free list twice")
		}
		seen[tr] = true
		if tr.t != nil || tr.q != zero {
			t.Fatalf("parked transit record not zeroed: task=%v item=%+v", tr.t, tr.q)
		}
		if tr.ex != ex || tr.done == nil {
			t.Fatal("parked transit record lost its executor or its bound arrive func")
		}
	}
	return len(seen)
}

// TestEventRecordsRecycleClean drives payload-carrying tuples and shard
// reassignments (labels) through local and remote tasks, stops the clock
// mid-run with service completions and network transits pending, and checks
// the records at both safe points. Resuming must then complete every tuple
// exactly once: pending events were neither lost nor returned to a free list
// before they fired.
func TestEventRecordsRecycleClean(t *testing.T) {
	env := newEnv(2)
	cfg := baseConfig()
	cfg.Cost = stream.FixedCost(100 * simtime.Microsecond)
	ex := New(env, cfg, 0)
	for _, c := range []cluster.CoreID{1, 4, 5} { // one more local task, two remote
		ex.AddCore(c)
	}
	payload := new(int)
	const tuples = 3000
	rng := simtime.NewRand(7)
	for i := 0; i < tuples; i++ {
		at := simtime.Time(rng.Intn(int(200 * simtime.Millisecond)))
		tup := tuple(stream.Key(rng.Intn(64)), 1, at)
		tup.Payload = payload
		env.clock.At(at, func() { ex.Receive(tup) })
	}
	for i := 0; i < 60; i++ {
		at := simtime.Time(rng.Intn(int(200 * simtime.Millisecond)))
		sh, dst := state.ShardID(rng.Intn(16)), TaskID(rng.Intn(4))
		env.clock.At(at, func() { ex.ReassignShard(sh, dst, nil) })
	}
	processed := 0
	ex.OnProcessed = func(tup stream.Tuple) {
		if tup.Payload != payload {
			t.Errorf("tuple processed with payload %v, want the one it was sent with", tup.Payload)
		}
		processed++
	}

	env.clock.At(simtime.Time(100*simtime.Millisecond), env.clock.Stop)
	env.clock.Run()
	busy := 0
	for _, tk := range ex.tasks {
		if tk != nil && tk.busy {
			busy++
		}
	}
	if busy == 0 || env.clock.Pending() == 0 {
		t.Fatalf("stop left nothing in service (busy=%d pending=%d); the test needs pending events", busy, env.clock.Pending())
	}
	checkRecordsClean(t, ex)

	env.clock.Run()
	if processed != tuples || ex.Stats.ProcessedTuples != tuples {
		t.Fatalf("processed %d (stats %d) of %d tuples across the stop", processed, ex.Stats.ProcessedTuples, tuples)
	}
	if !ex.Idle() {
		t.Fatal("executor not idle after the run drained")
	}
	if checkRecordsClean(t, ex) == 0 {
		t.Fatal("no transit record was ever parked: remote dispatch was not exercised")
	}
}

// TestTaskQueueRing checks the ring against a plain slice FIFO through
// growth, wrap-around and full drains.
func TestTaskQueueRing(t *testing.T) {
	var q taskQueue
	var ref []uint64
	rng := simtime.NewRand(3)
	next := uint64(1)
	for step := 0; step < 20000; step++ {
		if rng.Intn(100) < 52 || len(ref) == 0 { // drifts up, so the ring grows and wraps
			q.push(queued{arrivalSeq: next})
			ref = append(ref, next)
			next++
		} else {
			got := q.pop()
			if got.arrivalSeq != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got.arrivalSeq, ref[0])
			}
			ref = ref[1:]
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
		}
		if step%5000 == 4999 { // drain completely, then keep going on the same buffer
			for len(ref) > 0 {
				if got := q.pop(); got.arrivalSeq != ref[0] {
					t.Fatalf("drain: popped %d, want %d", got.arrivalSeq, ref[0])
				}
				ref = ref[1:]
			}
		}
	}
}
