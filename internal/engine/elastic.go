package engine

import (
	"time"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/policy"
	"repro/internal/qmodel"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// This file is the engine's mechanism surface for elasticity control planes:
// the policy.Host implementation plus the measurement, capacity, and
// core-assignment machinery every paradigm shares. The decisions (when to
// rebalance, what to move, which assigner) live in internal/policy.

// startControlLoops installs the policy's control plane.
func (e *Engine) startControlLoops() {
	e.pol.Install((*host)(e))
}

// host adapts the engine to policy.Host, keeping the mechanism methods off
// the engine's public API.
type host Engine

// Knobs returns the paradigm-relevant configuration slice.
func (h *host) Knobs() policy.Knobs { return (*Engine)(h).knobs() }

func (e *Engine) knobs() policy.Knobs {
	return policy.Knobs{
		Y:               e.cfg.Y,
		YPerOp:          e.cfg.YPerOp,
		Z:               e.cfg.Z,
		OpShards:        e.cfg.OpShards,
		Theta:           e.cfg.Theta,
		Phi:             e.cfg.Phi,
		Tmax:            e.cfg.Tmax,
		SchedulePeriod:  e.cfg.SchedulePeriod,
		RebalancePeriod: e.cfg.RebalancePeriod,
		FixedCores:      e.cfg.FixedCores,
	}
}

// Now returns the current virtual time.
func (h *host) Now() simtime.Time { return (*Engine)(h).clock.Now() }

// Every schedules fn at each multiple of interval.
func (h *host) Every(interval simtime.Duration, fn func()) { (*Engine)(h).Every(interval, fn) }

// Operators lists the non-source operator runtimes in topology order. The
// slice is the engine's; callers must not modify it.
func (h *host) Operators() []policy.Operator { return (*Engine)(h).polOps }

// RebalanceAll runs the §3.1 intra-executor load balancer on every elastic
// executor, using the loads accumulated in the current measurement window.
func (h *host) RebalanceAll() {
	for _, ex := range (*Engine)(h).elastic {
		ex.Rebalance()
	}
}

// ExecutorLoads measures (and resets) every elastic executor's window:
// arrival/service rates with the backpressure-refused weight folded into λ
// so the model sees the *offered* rate, per-executor data intensity, and λ₀,
// the aggregate first-hop arrival rate.
func (h *host) ExecutorLoads() ([]qmodel.ExecutorLoad, []float64, float64) {
	e := (*Engine)(h)
	m := len(e.elastic)
	loads := make([]qmodel.ExecutorLoad, m)
	intensity := make([]float64, m)
	var lambda0 float64
	for j, ex := range e.elastic {
		w := ex.TakeWindow()
		mu := w.Mu
		if mu <= 0 {
			mu = e.fallbackMu(e.elasticOp[j].op)
		}
		e.lastMuOf(ex, &mu)
		lambda := w.Lambda
		if b := e.blockedW[ex]; b > 0 && w.Span > 0 {
			lambda += float64(b) / w.Span.Seconds()
			delete(e.blockedW, ex)
		}
		loads[j] = qmodel.ExecutorLoad{Lambda: lambda, Mu: mu}
		intensity[j] = w.DataIntensity
		if e.elasticOp[j].firstHop {
			lambda0 += lambda
		}
	}
	return loads, intensity, lambda0
}

// AvailableCores is the core budget open to elastic executors: every core
// not reserved for sources.
func (h *host) AvailableCores() int {
	e := (*Engine)(h)
	return e.cluster.TotalCores() - e.sourceCoreCount()
}

// SchedulerInput assembles the Algorithm-1 input from the engine's concrete
// bookkeeping plus the policy's allocation and intensity vectors.
func (h *host) SchedulerInput(alloc []int, intensity []float64) scheduler.Input {
	e := (*Engine)(h)
	m := len(e.elastic)
	in := scheduler.Input{
		Capacity:      e.elasticCapacity(),
		Local:         make([]int, m),
		StateBytes:    make([]float64, m),
		DataIntensity: intensity,
		Existing:      e.existingMatrix(),
		Alloc:         alloc,
		Phi:           e.cfg.Phi,
	}
	for j, ex := range e.elastic {
		in.Local[j] = int(ex.LocalNode())
		in.StateBytes[j] = float64(e.executorStateBytes(j))
	}
	return in
}

// ApplyAssignment applies the target core matrix through the elastic APIs.
func (h *host) ApplyAssignment(x [][]int) { (*Engine)(h).applyAssignment(x) }

// RecordSchedulingWall logs one scheduling decision's wall-clock cost.
func (h *host) RecordSchedulingWall(d time.Duration) {
	e := (*Engine)(h)
	e.r.SchedulingWall = append(e.r.SchedulingWall, d)
	e.emit(Event{Kind: EventPolicyInvoked, At: e.clock.Now(), Node: -1, Detail: e.pol.Name()})
}

// StartRepartition runs the global repartition protocol for the decided
// moves. The operator handle must come from this host's Operators.
func (h *host) StartRepartition(op policy.Operator, moves []balancer.Move) {
	e := (*Engine)(h)
	rt, ok := op.(*opRuntime)
	if !ok {
		panic("engine: StartRepartition with a foreign Operator handle")
	}
	e.startRepartition(rt, moves)
}

// lastMus caches μ estimates between windows.
func (e *Engine) lastMuOf(ex *executor.Executor, mu *float64) {
	if e.lastMu == nil {
		e.lastMu = make(map[*executor.Executor]float64)
	}
	if *mu > 0 {
		e.lastMu[ex] = *mu
		return
	}
	if prev, ok := e.lastMu[ex]; ok {
		*mu = prev
	}
}

// fallbackMu derives a service-rate estimate from the operator's cost model
// before any measurements exist.
func (e *Engine) fallbackMu(op *stream.Operator) float64 {
	cost := op.Cost(stream.Tuple{Bytes: op.OutBytes, Weight: 1})
	if cost <= 0 {
		return 0
	}
	return 1 / cost.Seconds()
}

// sourceCoreCount returns the cores reserved for source instances (zero when
// sources are configured core-free).
func (e *Engine) sourceCoreCount() int {
	if e.cfg.SourcesFree {
		return 0
	}
	n := 0
	for _, insts := range e.sources {
		for _, inst := range insts {
			if !inst.freeRide {
				n++
			}
		}
	}
	return n
}

// elasticCapacity returns per-node core capacity available to elastic
// executors: total cores minus source reservations on that node.
func (e *Engine) elasticCapacity() []int {
	cap := make([]int, e.cluster.Nodes())
	for _, core := range e.cluster.Cores() {
		if e.cluster.NodeAlive(core.Node) {
			cap[core.Node]++
		}
	}
	if !e.cfg.SourcesFree {
		for _, insts := range e.sources {
			for _, inst := range insts {
				if !inst.freeRide {
					cap[inst.node]--
				}
			}
		}
	}
	for i, c := range cap {
		if c < 0 {
			cap[i] = 0
		}
	}
	return cap
}

// existingMatrix builds X̃ from the engine's concrete core bookkeeping.
func (e *Engine) existingMatrix() [][]int {
	n, m := e.cluster.Nodes(), len(e.elastic)
	x := make([][]int, n)
	for i := range x {
		x[i] = make([]int, m)
	}
	j := 0
	for _, rt := range e.opOrder {
		for i := range rt.execs {
			for _, core := range rt.cores[i] {
				x[e.cluster.NodeOf(core)][j]++
			}
			j++
		}
	}
	return x
}

// executorStateBytes returns the aggregate state size s_j of elastic
// executor j (z shards × per-shard size).
func (e *Engine) executorStateBytes(j int) int {
	op := e.elasticOp[j].op
	return op.StatePerShard * e.cfg.Z
}

// applyAssignment diffs the target matrix against current core holdings and
// applies revocations then grants through the executors' elastic APIs.
func (e *Engine) applyAssignment(x [][]int) {
	// Flatten executor indexing identically to existingMatrix.
	type slot struct {
		rt  *opRuntime
		idx int
	}
	var slots []slot
	for _, rt := range e.opOrder {
		for i := range rt.execs {
			slots = append(slots, slot{rt, i})
		}
	}
	// Phase 1: revoke surplus cores per (node, executor). Nodes are visited
	// in ID order — when revocation stops at the executor's last live core,
	// the visiting order decides which node keeps it.
	for j, s := range slots {
		ex := s.rt.execs[s.idx]
		byNode := make(map[cluster.NodeID][]cluster.CoreID)
		for _, core := range s.rt.cores[s.idx] {
			n := e.cluster.NodeOf(core)
			byNode[n] = append(byNode[n], core)
		}
		for n := 0; n < e.cluster.Nodes(); n++ {
			node := cluster.NodeID(n)
			cores := byNode[node]
			want := x[n][j]
			for len(cores) > want {
				core := cores[len(cores)-1]
				cores = cores[:len(cores)-1]
				if ex.RemoveCore(core) {
					e.removeCoreRecord(s.rt, s.idx, core)
					e.releaseCore(core)
				} else {
					break // last core of the executor; keep it
				}
			}
		}
	}
	// Phase 2: grant missing cores.
	for j, s := range slots {
		ex := s.rt.execs[s.idx]
		have := make(map[cluster.NodeID]int)
		for _, core := range s.rt.cores[s.idx] {
			have[e.cluster.NodeOf(core)]++
		}
		for n := 0; n < e.cluster.Nodes(); n++ {
			node := cluster.NodeID(n)
			for have[node] < x[n][j] {
				core, ok := e.takeFreeCoreOn(node)
				if !ok {
					break // a refused revocation above may leave a small deficit
				}
				ex.AddCore(core)
				s.rt.cores[s.idx] = append(s.rt.cores[s.idx], core)
				have[node]++
			}
		}
	}
}

func (e *Engine) removeCoreRecord(rt *opRuntime, idx int, core cluster.CoreID) {
	cs := rt.cores[idx]
	for i, c := range cs {
		if c == core {
			cs[i] = cs[len(cs)-1]
			rt.cores[idx] = cs[:len(cs)-1]
			return
		}
	}
}
