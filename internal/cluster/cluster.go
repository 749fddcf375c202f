// Package cluster models the compute substrate the paper evaluates on: a set
// of nodes, each with a fixed number of CPU cores and a network interface with
// finite bandwidth. It also provides the global core registry the dynamic
// scheduler allocates from.
//
// The paper's testbed is 32 EC2 t2.2xlarge nodes (8 cores, 32 GB) on 1 Gbps
// Ethernet; those are the defaults here.
package cluster

import (
	"fmt"

	"repro/internal/simtime"
)

// NodeID identifies a node in the cluster.
type NodeID int

// CoreID identifies one physical CPU core, unique across the cluster.
type CoreID int

// Core is one physical CPU core.
type Core struct {
	ID   CoreID
	Node NodeID
}

// Config describes a cluster to build.
type Config struct {
	Nodes        int              // number of nodes
	CoresPerNode int              // CPU cores per node
	BandwidthBps float64          // NIC bandwidth per node, bits per second
	Latency      simtime.Duration // one-way network latency between distinct nodes
}

// Default returns the paper's cluster: n nodes × 8 cores, 1 Gbps, 0.5 ms.
func Default(n int) Config {
	return Config{
		Nodes:        n,
		CoresPerNode: 8,
		BandwidthBps: 1e9,
		Latency:      500 * simtime.Microsecond,
	}
}

// Cluster is the simulated machine inventory plus its network. The inventory
// is no longer frozen at construction: AddNode grows it mid-run and
// RemoveNode marks a node dead (graceful drain and hard failure look the
// same at this layer — the node's cores stop counting toward capacity).
//
// Node and core IDs are append-only and never reused: a dead node keeps its
// slot (and its NIC entry, so in-flight transfers drain deterministically),
// it just stops being alive.
type Cluster struct {
	cfg   Config
	cores []Core
	alive []bool // per-node liveness, parallel to nics
	nics  []nic  // per-node egress queue
	clock *simtime.Clock
}

type nic struct {
	busyUntil simtime.Time
	sentBytes int64
}

// New builds a cluster on the given clock. It panics on nonsensical configs;
// building a cluster is setup code, not a recoverable path.
func New(clock *simtime.Clock, cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid config %+v", cfg))
	}
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = 1e9
	}
	c := &Cluster{cfg: cfg, clock: clock, nics: make([]nic, cfg.Nodes)}
	c.alive = make([]bool, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		c.alive[n] = true
		for i := 0; i < cfg.CoresPerNode; i++ {
			c.cores = append(c.cores, Core{ID: CoreID(len(c.cores)), Node: NodeID(n)})
		}
	}
	return c
}

// Config returns the configuration the cluster was built with.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the number of node slots ever created, dead ones included.
// Node IDs are always in [0, Nodes()); use NodeAlive to filter.
func (c *Cluster) Nodes() int { return len(c.nics) }

// AliveNodes returns the number of live nodes.
func (c *Cluster) AliveNodes() int {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// NodeAlive reports whether node n is live.
func (c *Cluster) NodeAlive(n NodeID) bool {
	return int(n) >= 0 && int(n) < len(c.alive) && c.alive[n]
}

// AddNode grows the cluster by one node with the given core count (0 uses
// the configured CoresPerNode), returning the new node's ID. The new cores
// get fresh IDs appended after every existing one.
func (c *Cluster) AddNode(cores int) NodeID {
	if cores <= 0 {
		cores = c.cfg.CoresPerNode
	}
	id := NodeID(len(c.nics))
	c.nics = append(c.nics, nic{})
	c.alive = append(c.alive, true)
	for i := 0; i < cores; i++ {
		c.cores = append(c.cores, Core{ID: CoreID(len(c.cores)), Node: id})
	}
	return id
}

// RemoveNode marks node n dead: its cores stop counting toward TotalCores
// and CoresOn, but its slot and NIC remain so node IDs stay stable and
// transfers already queued on its uplink drain normally. Removing the last
// live node (or a node already dead) panics — the caller is expected to have
// validated the event.
func (c *Cluster) RemoveNode(n NodeID) {
	if !c.NodeAlive(n) {
		panic(fmt.Sprintf("cluster: RemoveNode(%d): node is not alive", n))
	}
	if c.AliveNodes() == 1 {
		panic("cluster: RemoveNode would kill the last live node")
	}
	c.alive[n] = false
}

// TotalCores returns the number of cores on live nodes.
func (c *Cluster) TotalCores() int {
	n := 0
	for _, core := range c.cores {
		if c.alive[core.Node] {
			n++
		}
	}
	return n
}

// CoresOn returns the core IDs hosted by node n, in ID order, regardless of
// the node's liveness (callers deciding what to evacuate need the dead
// node's cores too).
func (c *Cluster) CoresOn(n NodeID) []CoreID {
	var out []CoreID
	for _, core := range c.cores {
		if core.Node == n {
			out = append(out, core.ID)
		}
	}
	return out
}

// Cores returns all cores ever created in ID order, including those on dead
// nodes (filter with NodeAlive). The slice must not be mutated.
func (c *Cluster) Cores() []Core { return c.cores }

// Core returns the core with the given ID.
func (c *Cluster) Core(id CoreID) Core { return c.cores[id] }

// NodeOf returns the node hosting core id.
func (c *Cluster) NodeOf(id CoreID) NodeID { return c.cores[id].Node }

// TransferDuration returns the wire time for payload bytes between two nodes,
// excluding NIC queueing: latency + bytes/bandwidth. Transfers within a node
// are free (intra-process or loopback shared memory).
func (c *Cluster) TransferDuration(from, to NodeID, bytes int) simtime.Duration {
	if from == to {
		return 0
	}
	return c.cfg.Latency + c.serializeDuration(bytes)
}

func (c *Cluster) serializeDuration(bytes int) simtime.Duration {
	return simtime.FromSeconds(float64(bytes) * 8 / c.cfg.BandwidthBps)
}

// Send models a transfer of payload bytes from node `from` to node `to` and
// invokes done when the payload has fully arrived; see SendAction.
func (c *Cluster) Send(from, to NodeID, bytes int, done func()) {
	c.SendAction(from, to, bytes, simtime.Func(done))
}

// SendAction models a transfer of payload bytes from node `from` to node `to`
// and fires done when the payload has fully arrived. The sender's NIC is a
// FIFO resource: concurrent transfers from the same node queue behind each
// other, which is what saturates a node's 1 Gbps uplink in the data-intensive
// experiments (Fig 10/11). Intra-node sends complete immediately (done is
// still deferred to a zero-delay event to keep causality uniform). done goes
// onto the clock as it is, so a caller's reusable record costs no allocation.
func (c *Cluster) SendAction(from, to NodeID, bytes int, done simtime.Action) {
	if from == to {
		c.clock.ScheduleAfter(0, done)
		return
	}
	n := &c.nics[from]
	now := c.clock.Now()
	start := now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	finish := start.Add(c.serializeDuration(bytes))
	n.busyUntil = finish
	n.sentBytes += int64(bytes)
	c.clock.Schedule(finish.Add(c.cfg.Latency), done)
}

// NICBacklog returns how far in the future node n's NIC is already committed,
// a congestion signal used by tests and diagnostics.
func (c *Cluster) NICBacklog(n NodeID) simtime.Duration {
	b := c.nics[n].busyUntil
	now := c.clock.Now()
	if b <= now {
		return 0
	}
	return b.Sub(now)
}

// SentBytes returns the cumulative bytes sent from node n's NIC.
func (c *Cluster) SentBytes(n NodeID) int64 { return c.nics[n].sentBytes }

// TotalSentBytes sums SentBytes over all nodes.
func (c *Cluster) TotalSentBytes() int64 {
	var t int64
	for i := range c.nics {
		t += c.nics[i].sentBytes
	}
	return t
}
