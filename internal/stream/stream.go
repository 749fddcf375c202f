// Package stream defines the data-plane vocabulary of the reproduction:
// tuples, keys, the two-tier key-space partitioning (operator-level executor
// partitioning and executor-level shards), operators, and topologies.
//
// Terminology follows the paper (§2.1): a topology is a DAG of operators;
// each operator's key space is statically partitioned across its executors;
// inside an elastic executor, keys hash into shards which map dynamically to
// tasks.
package stream

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// Key identifies the partitioning key of a tuple (e.g. a stock ID).
type Key uint64

// hash64 is a Fibonacci/avalanche mix used for all key-space partitioning.
// It must be stable: routing tables and shard maps depend on it.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// ExecutorIndex returns the executor (in [0, executors)) statically bound to
// k at the operator level. Both the static and executor-centric paradigms use
// this fixed mapping; the resource-centric paradigm replaces it with a
// dynamic operator-level shard map.
func (k Key) ExecutorIndex(executors int) int {
	return int(hash64(uint64(k)) % uint64(executors))
}

// Shard returns the executor-level shard (in [0, shards)) for k. A second
// hash round decorrelates shard choice from executor choice so that hot keys
// landing on one executor still spread over its shards.
func (k Key) Shard(shards int) int {
	return int(hash64(hash64(uint64(k))+0x9E3779B97F4A7C15) % uint64(shards))
}

// OperatorShard returns the operator-level shard for the resource-centric
// paradigm, which repartitions the whole operator key space at a granularity
// of `shards` mini-partitions (8192 in the paper's RC setup).
func (k Key) OperatorShard(shards int) int {
	return int(hash64(hash64(uint64(k))^0xD1B54A32D192ED03) % uint64(shards))
}

// Tuple is one unit of data flowing through the topology. To keep event
// counts tractable at paper-scale rates, a Tuple may represent Weight
// identical tuples of the same key arriving back to back; all cost models
// (CPU, bytes) scale by Weight, and throughput/latency accounting unfolds it.
type Tuple struct {
	Key     Key
	Seq     uint64       // per-key sequence number, assigned at the source
	Weight  int          // number of real tuples this event represents (>= 1)
	Bytes   int          // size of ONE real tuple in bytes
	Born    simtime.Time // emission time at the source (latency baseline)
	Payload interface{}  // optional user payload (e.g. an SSE order)

	// Latency-anatomy accumulators (observation only — no control decision
	// reads them). Mark is the admission stamp toward the current operator:
	// the simulator stamps every tuple at routing, the runtime backend stamps
	// only 1-in-N sampled tuples at the source (Mark != 0 means "traced").
	// Svc/RPStall/MGStall accumulate attributed service time, §3.3
	// operator-pause stall, and executor shard-reassignment stall across
	// hops; the sink derives queue wait as the non-negative residual of
	// (now - Born), so the four stages tile end-to-end latency exactly.
	// Outputs inherit them from their input like Born, keeping multi-hop
	// attribution end to end.
	Mark    simtime.Time
	Svc     simtime.Duration
	RPStall simtime.Duration
	MGStall simtime.Duration
}

// TotalBytes returns the wire size of the whole batch.
func (t Tuple) TotalBytes() int { return t.Bytes * t.Weight }

// OperatorID identifies an operator within a topology.
type OperatorID int

// CostModel returns the virtual CPU time to process one real tuple. It may
// inspect the tuple (payload-dependent costs); Weight scaling is applied by
// the caller.
type CostModel func(t Tuple) simtime.Duration

// FixedCost returns a CostModel charging d per tuple.
func FixedCost(d simtime.Duration) CostModel {
	return func(Tuple) simtime.Duration { return d }
}

// Handler is the user-defined processing logic of an operator. It runs when
// a tuple is dequeued by a task, may read/update per-key state through the
// accessor, and returns the tuples to emit downstream (nil for none).
//
// State is an opaque per-key slot owned by the enclosing process's store;
// handlers treat it as their private data structure (paper §3.2).
type Handler func(t Tuple, state StateAccessor) []Tuple

// StateAccessor gives a handler read/write access to the state of the key
// currently being processed. It is valid only for the duration of the handler
// invocation it was passed to: both backends rebind one accessor per state
// partition for every tuple, so a handler must not retain it.
type StateAccessor interface {
	// Get returns the state value for the current key, or nil.
	Get() interface{}
	// Set replaces the state value for the current key.
	Set(v interface{})
}

// Operator is a vertex of the topology.
type Operator struct {
	ID   OperatorID
	Name string

	// Source marks spout-like operators that generate tuples rather than
	// consume them. Source operators have fixed parallelism and one core per
	// executor (they are outside the elasticity mechanism, like Storm spouts).
	Source bool

	// Cost is the per-tuple CPU cost model. Required for non-source operators.
	Cost CostModel

	// Handler is optional user logic (state updates + emissions). When nil,
	// the operator just absorbs tuples (sink) or forwards nothing.
	Handler Handler

	// OutBytes is the size of one emitted tuple when the Handler emits via
	// convention rather than explicit sizes. Emitted tuples with Bytes == 0
	// inherit this.
	OutBytes int

	// StatePerShard is the resident state size of one executor-level shard in
	// bytes; it determines state-migration cost (32 KB default, §5.1).
	StatePerShard int

	// Selectivity, when Handler is nil, is the average number of output
	// tuples emitted downstream per input tuple (0 for a sink). This lets
	// cost-model-only operators still generate downstream traffic.
	Selectivity float64

	downstream []OperatorID
	upstream   []OperatorID
}

// Downstream returns the IDs of operators consuming this operator's output.
func (o *Operator) Downstream() []OperatorID { return o.downstream }

// Upstream returns the IDs of operators feeding this operator.
func (o *Operator) Upstream() []OperatorID { return o.upstream }

// Topology is a DAG of operators.
type Topology struct {
	Name string
	ops  []*Operator
}

// NewTopology returns an empty topology.
func NewTopology(name string) *Topology { return &Topology{Name: name} }

// Add registers an operator and assigns its ID. The operator is described by
// the caller; Add fills in ID.
func (tp *Topology) Add(op *Operator) *Operator {
	op.ID = OperatorID(len(tp.ops))
	tp.ops = append(tp.ops, op)
	return op
}

// Connect declares a stream from operator `from` to operator `to`.
func (tp *Topology) Connect(from, to OperatorID) {
	f, t := tp.ops[from], tp.ops[to]
	f.downstream = append(f.downstream, to)
	t.upstream = append(t.upstream, from)
}

// Operators returns all operators in ID order.
func (tp *Topology) Operators() []*Operator { return tp.ops }

// Operator returns the operator with the given ID.
func (tp *Topology) Operator(id OperatorID) *Operator { return tp.ops[id] }

// Sources returns the source operators in ID order.
func (tp *Topology) Sources() []*Operator {
	var s []*Operator
	for _, op := range tp.ops {
		if op.Source {
			s = append(s, op)
		}
	}
	return s
}

// Validate checks structural sanity: at least one source, acyclicity, cost
// models on non-source operators, and that every operator is reachable from
// a source.
func (tp *Topology) Validate() error {
	if len(tp.ops) == 0 {
		return fmt.Errorf("stream: topology %q has no operators", tp.Name)
	}
	if len(tp.Sources()) == 0 {
		return fmt.Errorf("stream: topology %q has no source operator", tp.Name)
	}
	for _, op := range tp.ops {
		if !op.Source && op.Cost == nil {
			return fmt.Errorf("stream: operator %q has no cost model", op.Name)
		}
		if op.Source && len(op.upstream) > 0 {
			return fmt.Errorf("stream: source operator %q has upstream edges", op.Name)
		}
	}
	order, err := tp.TopoOrder()
	if err != nil {
		return err
	}
	reached := make(map[OperatorID]bool)
	for _, id := range order {
		op := tp.ops[id]
		if op.Source {
			reached[id] = true
			continue
		}
		for _, u := range op.upstream {
			if reached[u] {
				reached[id] = true
				break
			}
		}
	}
	for _, op := range tp.ops {
		if !reached[op.ID] {
			return fmt.Errorf("stream: operator %q unreachable from any source", op.Name)
		}
	}
	return nil
}

// TopoOrder returns the operator IDs in a topological order, or an error if
// the graph has a cycle.
func (tp *Topology) TopoOrder() ([]OperatorID, error) {
	indeg := make(map[OperatorID]int, len(tp.ops))
	for _, op := range tp.ops {
		indeg[op.ID] = len(op.upstream)
	}
	var frontier []OperatorID
	for id, d := range indeg {
		if d == 0 {
			frontier = append(frontier, id)
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	var order []OperatorID
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, d := range tp.ops[id].downstream {
			indeg[d]--
			if indeg[d] == 0 {
				frontier = append(frontier, d)
			}
		}
	}
	if len(order) != len(tp.ops) {
		return nil, fmt.Errorf("stream: topology %q contains a cycle", tp.Name)
	}
	return order, nil
}
