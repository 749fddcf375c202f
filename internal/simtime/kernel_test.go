package simtime

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are the reference kernel the property test compares
// against: the container/heap of (at, seq) pairs the clock used to be.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refClock replays a schedule on the reference heap with the clock's run-loop
// rules: fire in (at, seq) order, stop after the current event, leave events
// past the limit queued, advance to the limit when the bound ends the run.
type refClock struct {
	now       Time
	seq       uint64
	events    refHeap
	stopped   bool
	processed uint64
}

func (c *refClock) at(t Time, id int) {
	c.seq++
	heap.Push(&c.events, refEvent{at: t, seq: c.seq, id: id})
}

func (c *refClock) runUntil(limit Time, fire func(id int)) {
	c.stopped = false
	for c.events.Len() > 0 && !c.stopped {
		if c.events[0].at > limit {
			break
		}
		e := heap.Pop(&c.events).(refEvent)
		c.now = e.at
		c.processed++
		fire(e.id)
	}
	if !c.stopped && limit < MaxTime && c.now < limit {
		c.now = limit
	}
}

// script decides, from the seed alone, what event id does when it fires: how
// many children it schedules and at which delays (zero delays and shared
// delays force ties), and whether it stops the run. Both kernels execute the
// same script, so any difference in firing order is the heap's.
type script struct{ seed uint64 }

type child struct {
	delay Duration
	id    int
}

func (s script) fire(id int, budget *int) (children []child, stop bool) {
	r := NewRand(s.seed ^ uint64(id)*0x9E3779B97F4A7C15)
	n := r.Intn(4) // 0..3 children: the population drifts, it does not explode
	for i := 0; i < n && *budget > 0; i++ {
		*budget--
		var d Duration
		switch r.Intn(4) {
		case 0:
			d = 0 // After(0): same instant, must fire after everything already queued there
		case 1:
			d = Duration(r.Intn(3)) * Microsecond // coarse grid: many ties
		default:
			d = Duration(r.Intn(5000)) * Nanosecond
		}
		children = append(children, child{delay: d, id: id*4 + i + 1})
	}
	return children, r.Intn(97) == 0
}

// TestHeapMatchesReference drives the clock and a container/heap reference
// with the same seeded schedule — ties, events scheduled from inside events,
// After(0), Stop() mid-run, RunUntil limits with leftovers — and requires the
// same firing order, clock readings, Pending and Processed at every step.
func TestHeapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		sc := script{seed: seed}
		rng := NewRand(seed)

		clock, ref := NewClock(), &refClock{}
		var got, want []int
		gotBudget, wantBudget := 20000, 20000

		var fireGot func(id int) func()
		fireGot = func(id int) func() {
			return func() {
				got = append(got, id)
				children, stop := sc.fire(id, &gotBudget)
				for _, ch := range children {
					clock.After(ch.delay, fireGot(ch.id))
				}
				if stop {
					clock.Stop()
				}
			}
		}
		fireWant := func(id int) {
			want = append(want, id)
			children, stop := sc.fire(id, &wantBudget)
			for _, ch := range children {
				ref.at(ref.now.Add(ch.delay), ch.id)
			}
			if stop {
				ref.stopped = true
			}
		}

		// Roots: a few hundred events on a coarse grid, many sharing an instant.
		for i := 0; i < 300; i++ {
			at := Time(rng.Intn(50)) * Time(Microsecond)
			id := 1_000_000 + i
			clock.At(at, fireGot(id))
			ref.at(at, id)
		}

		// Step both kernels through the same random limits; a Stop() leaves the
		// step early and the next step resumes, as the engine's StepUntil does.
		limit := Time(0)
		for step := 0; step < 400 && (clock.Pending() > 0 || ref.events.Len() > 0); step++ {
			limit = limit.Add(Duration(rng.Intn(20)) * Microsecond)
			clock.RunUntil(limit)
			ref.runUntil(limit, fireWant)
			if clock.Now() != ref.now || clock.Pending() != ref.events.Len() || clock.Processed != ref.processed {
				t.Fatalf("seed %d step %d: now/pending/processed = %v/%d/%d, reference %v/%d/%d",
					seed, step, clock.Now(), clock.Pending(), clock.Processed, ref.now, ref.events.Len(), ref.processed)
			}
		}
		clock.Run()
		ref.runUntil(MaxTime, fireWant)
		for clock.Pending() > 0 { // a Stop() inside the final Run leaves work queued
			clock.Run()
			ref.runUntil(MaxTime, fireWant)
		}

		if len(got) != len(want) || clock.Processed != ref.processed {
			t.Fatalf("seed %d: fired %d events (Processed %d), reference %d (%d)",
				seed, len(got), clock.Processed, len(want), ref.processed)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at event %d: got id %d, reference %d", seed, i, got[i], want[i])
			}
		}
		if len(got) < 300 {
			t.Fatalf("seed %d: schedule fired only %d events", seed, len(got))
		}
	}
}

// TestSchedulePastPanicsMidRun checks the causality guard on the Action path,
// from inside a firing event with a deep heap behind it.
func TestSchedulePastPanicsMidRun(t *testing.T) {
	c := NewClock()
	for i := 0; i < 1000; i++ {
		c.At(Time(1000+i), func() {})
	}
	panicked := false
	c.At(500, func() {
		defer func() { panicked = recover() != nil }()
		c.Schedule(499, Func(func() {}))
	})
	c.Run()
	if !panicked {
		t.Fatal("Schedule in the past did not panic")
	}
	if c.Processed != 1001 || c.Pending() != 0 {
		t.Fatalf("Processed=%d Pending=%d after the guarded panic, want 1001/0", c.Processed, c.Pending())
	}
}

// chain is a self-rescheduling typed event, the shape of the engine's source
// instances and the executor's tasks.
type chain struct {
	c      *Clock
	period Duration
	left   *int
}

func (ch *chain) Fire() {
	*ch.left--
	if *ch.left <= 0 {
		ch.c.Stop()
		return
	}
	ch.c.ScheduleAfter(ch.period, ch)
}

// TestSteadyStateEventsDoNotAllocate is the kernel's allocation guard: with
// 10 000 events pending and every firing scheduling its successor, an event
// costs zero allocations — for a typed record and for a func() that is
// rescheduled as the same value.
func TestSteadyStateEventsDoNotAllocate(t *testing.T) {
	const depth, perRun = 10000, 50000

	c := NewClock()
	left := 0
	for i := 0; i < depth; i++ {
		ch := &chain{c: c, period: Duration(1+i%97) * Microsecond, left: &left}
		c.ScheduleAfter(ch.period, ch)
	}
	run := func() {
		left = perRun
		c.Run()
	}
	run() // the heap's backing array reaches its steady size
	if a := testing.AllocsPerRun(5, run); a != 0 {
		t.Errorf("typed events: %.1f allocs per %d events, want 0", a, perRun)
	}

	c = NewClock()
	for i := 0; i < depth; i++ {
		period := Duration(1+i%97) * Microsecond
		var tick func()
		tick = func() {
			left--
			if left <= 0 {
				c.Stop()
				return
			}
			c.After(period, tick)
		}
		c.After(period, tick)
	}
	run()
	if a := testing.AllocsPerRun(5, run); a != 0 {
		t.Errorf("func events: %.1f allocs per %d events, want 0", a, perRun)
	}
}
