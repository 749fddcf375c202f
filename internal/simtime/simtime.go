// Package simtime provides the discrete-event simulation kernel used by the
// Elasticutor reproduction: a virtual clock, a deterministic event queue, and
// a seeded random source.
//
// All engine components schedule work as events on a Clock. Events fire in
// timestamp order; ties break by scheduling order, which makes every
// simulation run fully deterministic for a given seed and input.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is kept distinct from
// time.Duration only by convention; conversions are free.
type Duration = time.Duration

// Common durations re-exported for call-site brevity.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// FromSeconds converts a seconds count to a Duration. It is the one sanctioned
// float→duration conversion: call sites must not hand-roll nanosecond math
// (`Duration(v * float64(Second))`), so the sim and the real-time backend keep
// a single duration vocabulary.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// FromMicros converts a microseconds count to a Duration.
func FromMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// ToMillis expresses a Duration in (fractional) milliseconds, the display unit
// of the paper's latency tables.
func ToMillis(d Duration) float64 { return float64(d) / float64(Millisecond) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Action is a unit of work scheduled on a Clock. Cold call sites pass a plain
// func() through At/After; the per-tuple sites of the engine and executor
// implement Action on records they own and reuse, so scheduling a tuple's next
// step allocates nothing.
type Action interface {
	Fire()
}

// Func adapts a plain function to Action. A func value is pointer-shaped, so
// the conversion to the interface does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is one scheduled action. Events live by value in the clock's heap and
// fire in (at, seq) order; seq is unique, so the order is total and does not
// depend on the heap's shape.
type event struct {
	at  Time
	seq uint64
	act Action
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the branching factor of the event heap. Four children share
// two cache lines and halve the depth of a binary heap, which is what a
// sift-down over a few thousand pending events pays for.
const heapArity = 4

// Clock is a virtual clock driving a discrete-event simulation. The zero
// value is not usable; construct with NewClock.
type Clock struct {
	now     Time
	seq     uint64
	events  []event // heapArity-ary min-heap on (at, seq); grows on demand
	stopped bool
	// Processed counts events executed so far (for diagnostics and tests).
	Processed uint64
}

// NewClock returns a clock at virtual time zero with an empty event queue.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Schedule queues a to fire at virtual time t. Scheduling in the past
// (t < Now) is a programming error and panics: it would silently reorder
// causality. The clock holds a until it fires; a record that recycles itself
// may do so from inside Fire.
func (c *Clock) Schedule(t Time, a Action) {
	if t < c.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, c.now))
	}
	c.seq++
	ev := event{at: t, seq: c.seq, act: a}
	h := append(c.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	c.events = h
}

// ScheduleAfter queues a to fire d after the current virtual time. Negative d
// is clamped to zero.
func (c *Clock) ScheduleAfter(d Duration, a Action) {
	if d < 0 {
		d = 0
	}
	c.Schedule(c.now.Add(d), a)
}

// At schedules fn to run at virtual time t; see Schedule.
func (c *Clock) At(t Time, fn func()) { c.Schedule(t, Func(fn)) }

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero.
func (c *Clock) After(d Duration, fn func()) { c.ScheduleAfter(d, Func(fn)) }

// pop removes and returns the earliest event.
func (c *Clock) pop() event {
	h := c.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // the vacated slot must not keep the action reachable
	h = h[:n]
	c.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		least := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for child := first + 1; child < end; child++ {
			if h[child].before(&h[least]) {
				least = child
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// Stop aborts a running Run/RunUntil after the current event returns.
func (c *Clock) Stop() { c.stopped = true }

// Pending reports the number of queued events.
func (c *Clock) Pending() int { return len(c.events) }

// RunUntil executes events in order until the queue is empty, the clock is
// stopped, or the next event is strictly after limit. The clock is advanced
// to limit when the run is exhausted by the time bound, so Now() == limit.
func (c *Clock) RunUntil(limit Time) {
	c.stopped = false
	for len(c.events) > 0 && !c.stopped {
		if c.events[0].at > limit {
			break
		}
		// The event is copied out of its slot before it fires: firing may
		// schedule, which moves slots and can reallocate the slice.
		ev := c.pop()
		c.now = ev.at
		c.Processed++
		ev.act.Fire()
	}
	if !c.stopped && limit < MaxTime && c.now < limit {
		c.now = limit
	}
}

// Run executes all events until the queue empties or the clock is stopped.
func (c *Clock) Run() { c.RunUntil(MaxTime) }

// Rand is a small, fast, deterministic random source (splitmix64 core with an
// xorshift finisher). It intentionally avoids math/rand so that simulations
// remain reproducible across Go releases.
type Rand struct{ state uint64 }

// NewRand returns a source seeded with seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed}
	// Warm up so nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// NormFloat64 returns a standard normal value (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork derives an independent child source; the parent advances by one draw.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }
