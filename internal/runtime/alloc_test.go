package runtime

import "testing"

// TestAdmissionDoesNotAllocate pins the source's admission path at zero
// steady-state allocations: sampling, routing, grouping, the pooled flush and
// the channel hand-off on the admitted path, and additionally the refusal,
// the closing flush and the reopen on the refusal path.
func TestAdmissionDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e, s, o := idleSource(t, 4096, 1)
	execs := o.snap.Load().execs
	sizes := make([]int, 0, 256)
	drainAll := func() {
		for _, x := range execs {
			sizes = drainQueue(o, x, sizes)
		}
	}
	tick := func() {
		s.emitBatch(4096)
		drainAll()
	}

	for i := 0; i < 8; i++ { // warm-up: size the scratch, stock the pools
		tick()
	}
	blocked := e.blocked.Load()
	if a := testing.AllocsPerRun(50, tick); a != 0 {
		t.Errorf("admitted path: %v allocations per tick, want 0", a)
	}
	if e.blocked.Load() != blocked {
		t.Fatal("admitted path was refused credit: the test measured the wrong path")
	}

	// Refusal path: executor 0 is preloaded so it closes every tick after
	// 200 tuples; draining it between ticks reopens it for the next.
	execs[0].queuedW.Add(e.creditW - 200)
	for i := 0; i < 8; i++ {
		tick()
	}
	blocked = e.blocked.Load()
	if a := testing.AllocsPerRun(50, tick); a != 0 {
		t.Errorf("refusal path: %v allocations per tick, want 0", a)
	}
	if e.blocked.Load() == blocked {
		t.Fatal("refusal path was never refused: the test measured the wrong path")
	}
}
