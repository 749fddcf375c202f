package runtime

import (
	"time"

	"repro/internal/balancer"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/qmodel"
	"repro/internal/scheduler"
	"repro/internal/simtime"
)

// rhost adapts the runtime engine to policy.Host. Every method runs on the
// control goroutine (Install and Every callbacks are serialized there), so
// the policies see the same single-threaded world they see in the simulator.
type rhost Engine

var _ policy.Host = (*rhost)(nil)

func (h *rhost) Knobs() policy.Knobs { return (*Engine)(h).knobs() }

func (h *rhost) Now() simtime.Time { return (*Engine)(h).vnow() }

func (h *rhost) Every(interval simtime.Duration, fn func()) {
	(*Engine)(h).everyTick(interval, fn)
}

func (h *rhost) Operators() []policy.Operator {
	e := (*Engine)(h)
	out := make([]policy.Operator, len(e.opOrder))
	for i, o := range e.opOrder {
		out[i] = o
	}
	return out
}

// RebalanceAll is a no-op on the runtime backend: an executor's workers pull
// from one shared queue, so intra-executor load balance is emergent (work
// conservation) rather than a scheduled shard re-striping. The §3.3 protocol
// the simulator exercises per shard move is still paid where it matters —
// operator-level repartitions (StartRepartition).
func (h *rhost) RebalanceAll() {}

// ExecutorLoads measures and resets every live executor's window from the
// real counters: arrivals (offered load folded in via the blocked weight),
// service rate from actual busy time, and data intensity.
func (h *rhost) ExecutorLoads() ([]qmodel.ExecutorLoad, []float64, float64) {
	e := (*Engine)(h)
	m := len(e.elastic)
	loads := make([]qmodel.ExecutorLoad, m)
	intensity := make([]float64, m)
	var lambda0 float64
	now := e.vnow()
	for j, x := range e.elastic {
		span := now.Sub(x.winStart)
		arrived := x.winArrived.Swap(0)
		processed := x.winProcessed.Swap(0)
		busy := time.Duration(x.winBusyNS.Swap(0))
		inB := x.winInBytes.Swap(0)
		outB := x.winOutBytes.Swap(0)
		blocked := x.blockedW.Swap(0)
		x.winStart = now

		var lambda, mu, di float64
		if sec := span.Seconds(); sec > 0 {
			lambda = float64(arrived+blocked) / sec
			cores := x.grantCount()
			if cores < 1 {
				cores = 1
			}
			di = float64(inB+outB) / sec / float64(cores)
		}
		if bs := busy.Seconds(); bs > 0 {
			mu = float64(processed) / bs
		}
		if mu <= 0 {
			mu = e.fallbackMu(x)
		}
		loads[j] = qmodel.ExecutorLoad{Lambda: lambda, Mu: mu}
		intensity[j] = di
		if x.o.firstHop {
			lambda0 += lambda
		}
	}
	return loads, intensity, lambda0
}

// fallbackMu estimates a service rate from the cost model before any
// measurement exists (same rule as the simulator).
func (e *Engine) fallbackMu(x *exec) float64 {
	if x.o.meta.Cost == nil {
		return 0
	}
	cost := x.o.meta.Cost(streamUnit(x))
	if cost <= 0 {
		return 0
	}
	return 1 / cost.Seconds()
}

func (h *rhost) AvailableCores() int {
	e := (*Engine)(h)
	total := 0
	for _, n := range e.nodes {
		if n.alive {
			total += n.cores - n.srcReserved
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

func (h *rhost) SchedulerInput(alloc []int, intensity []float64) scheduler.Input {
	e := (*Engine)(h)
	m := len(e.elastic)
	in := scheduler.Input{
		Capacity:      make([]int, len(e.nodes)),
		Local:         make([]int, m),
		StateBytes:    make([]float64, m),
		DataIntensity: intensity,
		Existing:      make([][]int, len(e.nodes)),
		Alloc:         alloc,
		Phi:           e.cfg.Phi,
	}
	for i, n := range e.nodes {
		if n.alive {
			in.Capacity[i] = n.cores - n.srcReserved
			if in.Capacity[i] < 0 {
				in.Capacity[i] = 0
			}
		}
		in.Existing[i] = make([]int, m)
	}
	for j, x := range e.elastic {
		x.gmu.Lock()
		in.Local[j] = x.local
		for n, c := range x.byNode {
			in.Existing[n][j] = c
		}
		x.gmu.Unlock()
		in.StateBytes[j] = float64(x.o.meta.StatePerShard * e.cfg.Z)
	}
	return in
}

// ApplyAssignment diffs the target matrix against current grants and applies
// revocations then grants — the runtime's core-grant semaphore adjustment.
func (h *rhost) ApplyAssignment(x [][]int) { (*Engine)(h).applyAssignment(x) }

func (e *Engine) applyAssignment(x [][]int) {
	// Phase 1: revoke surplus grants per (node, executor); the executor's
	// last grant is kept (an executor always holds one core).
	for j, ex := range e.elastic {
		for n := range e.nodes {
			want := 0
			if n < len(x) && j < len(x[n]) {
				want = x[n][j]
			}
			for have := ex.grantsOn(n); have > want; have-- {
				if !ex.revoke(n, false) {
					break
				}
				e.nodes[n].free.Add(1)
			}
		}
	}
	// Phase 2: grant missing cores.
	for j, ex := range e.elastic {
		for n := range e.nodes {
			want := 0
			if n < len(x) && j < len(x[n]) {
				want = x[n][j]
			}
			for have := ex.grantsOn(n); have < want; have++ {
				if !e.nodes[n].alive || e.nodes[n].free.Load() <= 0 {
					break
				}
				e.nodes[n].free.Add(-1)
				ex.grant(n)
			}
		}
	}
}

func (h *rhost) RecordSchedulingWall(d time.Duration) {
	e := (*Engine)(h)
	e.repMu.Lock()
	e.schedulingWall = append(e.schedulingWall, d)
	e.repMu.Unlock()
	e.emit(engine.Event{Kind: engine.EventPolicyInvoked, At: e.vnow(), Node: -1,
		Detail: e.pol.Name()})
}

func (h *rhost) StartRepartition(po policy.Operator, moves []balancer.Move) {
	e := (*Engine)(h)
	o, ok := po.(*op)
	if !ok {
		panic("runtime: StartRepartition with a foreign Operator handle")
	}
	e.startRepartition(o, moves)
}
