package engine

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/simtime"
	"repro/internal/state"
)

// This file holds the experiment-facing control surface: fixed-core pinning
// (Fig 10–12 single-executor scalability), forced protocol invocations
// (Fig 8/9 timing breakdowns), and per-repartition reporting.

// RepartitionReport describes one completed RC operator-level repartitioning.
type RepartitionReport struct {
	Moves      int
	Bytes      int64
	Sync       simtime.Duration // pause + drain + routing update
	Migration  simtime.Duration // state transfer
	Total      simtime.Duration
	InterMoves int // moves whose executors lived on different nodes
}

// OnRepartition, when set, observes every completed RC repartitioning.
// Exposed for the Fig 8/9 experiments.
func (e *Engine) SetOnRepartition(fn func(RepartitionReport)) { e.onRepartition = fn }

// ElasticExecutors returns all executors of non-source operators in
// deterministic order (experiments and tests).
func (e *Engine) ElasticExecutors() []*executor.Executor { return e.elastic }

// ExecutorCounts returns the live executor count per non-source operator
// name (the backend-conformance suite compares these across backends).
func (e *Engine) ExecutorCounts() map[string]int {
	out := make(map[string]int, len(e.ops))
	for _, rt := range e.opOrder {
		out[rt.op.Name] = len(rt.execs)
	}
	return out
}

// ExecutorsOf returns the executors of one operator.
func (e *Engine) ExecutorsOf(opID int) []*executor.Executor {
	for id, rt := range e.ops {
		if int(id) == opID {
			return rt.execs
		}
	}
	return nil
}

// ForceShardReassign initiates one intra- or inter-node shard reassignment
// on the first elastic executor and reports its protocol timings. The
// executor must already hold (or be grantable) a core in the requested
// placement; ForceShardReassign arranges one if needed. Returns an error if
// the topology placement cannot satisfy the request.
func (e *Engine) ForceShardReassign(inter bool, onDone func(executor.ReassignReport)) error {
	if len(e.elastic) == 0 {
		return fmt.Errorf("engine: no elastic executors")
	}
	ex := e.elastic[0]
	local := ex.LocalNode()
	// Ensure a destination task exists in the right placement.
	var wantNode cluster.NodeID
	if inter {
		if e.cluster.AliveNodes() < 2 {
			return fmt.Errorf("engine: inter-node reassign needs >= 2 live nodes")
		}
		// The next *live* node after local (slots may be dead after churn).
		wantNode = local
		for off := 1; off < e.cluster.Nodes(); off++ {
			cand := cluster.NodeID((int(local) + off) % e.cluster.Nodes())
			if e.cluster.NodeAlive(cand) {
				wantNode = cand
				break
			}
		}
		if wantNode == local {
			return fmt.Errorf("engine: no live destination node for inter-node reassign")
		}
	} else {
		wantNode = local
	}
	dst, haveTask := ex.TaskOnNode(wantNode)
	var sh state.ShardID
	var movable bool
	if haveTask {
		sh, movable = ex.AnyShardNotOn(dst)
	}
	if !haveTask || !movable {
		// No suitable destination (e.g. the executor's only local task owns
		// every shard): grant a fresh core in the requested placement — a
		// brand-new task owns nothing, so any shard can move to it.
		core, got := e.takeFreeCoreOn(wantNode)
		if !got {
			return fmt.Errorf("engine: no free core on node %d", wantNode)
		}
		dst = ex.AddCore(core)
		e.recordCore(ex, core)
		sh, movable = ex.AnyShardNotOn(dst)
		if !movable {
			return fmt.Errorf("engine: executor has no movable shard")
		}
	}
	if !ex.ReassignShard(sh, dst, onDone) {
		return fmt.Errorf("engine: reassignment refused")
	}
	return nil
}

// recordCore registers a directly granted core in the engine's bookkeeping
// so later scheduling rounds see it.
func (e *Engine) recordCore(ex *executor.Executor, core cluster.CoreID) {
	for _, rt := range e.ops {
		for i, cand := range rt.execs {
			if cand == ex {
				rt.cores[i] = append(rt.cores[i], core)
				return
			}
		}
	}
}

// ForceRCMove triggers the RC global repartitioning protocol for exactly one
// operator shard, moved from its current executor to executor dstIdx of the
// measured operator. Valid only under a dynamic-routing policy (rc).
func (e *Engine) ForceRCMove(dstIdx int, shard int) error {
	rt := e.ops[e.measureOp()]
	if rt == nil {
		return fmt.Errorf("engine: no measured operator")
	}
	if rt.opRouting == nil {
		return fmt.Errorf("engine: ForceRCMove requires a dynamic-routing policy (rc)")
	}
	if rt.repartition != nil || rt.paused {
		return fmt.Errorf("engine: repartition already in progress")
	}
	if dstIdx < 0 || dstIdx >= len(rt.execs) {
		return fmt.Errorf("engine: executor index %d out of range", dstIdx)
	}
	from := rt.opRouting[shard]
	if from == dstIdx {
		return fmt.Errorf("engine: shard already on executor %d", dstIdx)
	}
	e.startRepartition(rt, []balancer.Move{{Shard: shard, From: from, To: dstIdx}})
	return nil
}

// RCExecutorNodes returns the local nodes of the measured operator's RC
// executors, so experiments can pick intra- vs inter-node destinations.
func (e *Engine) RCExecutorNodes() []cluster.NodeID {
	rt := e.ops[e.measureOp()]
	if rt == nil {
		return nil
	}
	nodes := make([]cluster.NodeID, len(rt.execs))
	for i, ex := range rt.execs {
		nodes[i] = ex.LocalNode()
	}
	return nodes
}

// RCShardOn returns some operator shard currently routed to executor idx of
// the measured operator.
func (e *Engine) RCShardOn(idx int) (int, bool) {
	rt := e.ops[e.measureOp()]
	if rt == nil {
		return 0, false
	}
	for s, owner := range rt.opRouting {
		if owner == idx {
			return s, true
		}
	}
	return 0, false
}

// SetShardStateBytes overrides the per-shard state size of every elastic
// executor's store (Fig 9b / Fig 12 state-size sweeps).
func (e *Engine) SetShardStateBytes(bytes int) {
	for _, ex := range e.elastic {
		ex.SetStateBytesPerShard(bytes)
	}
}
