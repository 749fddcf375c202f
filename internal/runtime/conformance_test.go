package runtime

import (
	"testing"

	"repro/internal/balancer"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// The backend-conformance suite: the same scenario under the same policy must
// be *structurally* equivalent on the simulator and the real-time backend —
// identical executor provisioning, a conserved tuple ledger, and zero lost
// state under graceful churn. Absolute throughput and timing are backend
// properties and are deliberately not compared.

var conformancePolicies = []string{"static", "rc", "naive-ec", "elasticutor"}

func drainSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:        "rt-drain",
		Nodes:       4,
		DurationSec: 6,
		WarmupSec:   1,
		Workload:    scenario.WorkloadSpec{RateFraction: 0.25},
		Events:      []scenario.NodeEvent{{Kind: scenario.EventDrain, AtSec: 3, Node: 3}},
	}
}

func failSpec() *scenario.Spec {
	s := drainSpec()
	s.Name = "rt-fail"
	s.Events = []scenario.NodeEvent{{Kind: scenario.EventFail, AtSec: 3, Node: 3}}
	return s
}

func joinSpec() *scenario.Spec {
	s := drainSpec()
	s.Name = "rt-join"
	s.Events = []scenario.NodeEvent{{Kind: scenario.EventJoin, AtSec: 3}}
	return s
}

// TestConformanceFlashcrowd runs the flash-crowd scenario under all four
// policies on both backends and checks the structural contract.
func TestConformanceFlashcrowd(t *testing.T) {
	spec := quickSpec()
	for _, pol := range conformancePolicies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			inst, err := spec.Build(pol, 42)
			if err != nil {
				t.Fatalf("sim build: %v", err)
			}
			simR := inst.Engine.Run(spec.Duration())
			simCounts := inst.Engine.ExecutorCounts()

			rt, _, err := BuildScenario(spec, pol, 42, quickOpts())
			if err != nil {
				t.Fatalf("runtime build: %v", err)
			}
			rtR, err := rt.Run(spec.Duration())
			if err != nil {
				t.Fatalf("runtime run: %v", err)
			}
			rtCounts := rt.ExecutorCounts()

			// Same provisioning: the policy's Place decisions must land
			// identically on both backends.
			if len(simCounts) != len(rtCounts) {
				t.Fatalf("operator sets differ: sim=%v runtime=%v", simCounts, rtCounts)
			}
			for name, n := range simCounts {
				if rtCounts[name] != n {
					t.Errorf("executor count for %q: sim=%d runtime=%d", name, n, rtCounts[name])
				}
			}
			// Conserved ledger on the runtime; the simulator's invariant is
			// zero executor-level drops without churn.
			led := rt.Ledger()
			if !led.Conserved() {
				t.Errorf("runtime ledger not conserved: %v", led)
			}
			if led.Processed == 0 {
				t.Errorf("runtime processed nothing: %v", led)
			}
			if simR.Dropped != 0 {
				t.Errorf("sim dropped %d tuples without churn", simR.Dropped)
			}
			if simR.LostStateBytes != 0 || rtR.LostStateBytes != 0 {
				t.Errorf("lost state without failures: sim=%d runtime=%d",
					simR.LostStateBytes, rtR.LostStateBytes)
			}
			if simR.Policy != rtR.Policy {
				t.Errorf("policy names differ: %q vs %q", simR.Policy, rtR.Policy)
			}
		})
	}
}

// TestConformanceDrain checks the graceful-drain contract on both backends:
// the node leaves, no state is lost, and every tuple is accounted for.
func TestConformanceDrain(t *testing.T) {
	spec := drainSpec()
	for _, pol := range conformancePolicies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			simR, err := spec.Run(pol, 42)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			rt, _, err := BuildScenario(spec, pol, 42, quickOpts())
			if err != nil {
				t.Fatalf("runtime build: %v", err)
			}
			rtR, err := rt.Run(spec.Duration())
			if err != nil {
				t.Fatalf("runtime run: %v", err)
			}
			led := rt.Ledger()
			if !led.Conserved() {
				t.Errorf("ledger not conserved: %v", led)
			}
			if simR.NodeDrains != 1 || rtR.NodeDrains != 1 {
				t.Errorf("drain counts: sim=%d runtime=%d", simR.NodeDrains, rtR.NodeDrains)
			}
			// Graceful drains migrate state; losing any is a protocol bug.
			if simR.LostStateBytes != 0 {
				t.Errorf("sim lost %d bytes on graceful drain", simR.LostStateBytes)
			}
			if rtR.LostStateBytes != 0 {
				t.Errorf("runtime lost %d bytes on graceful drain", rtR.LostStateBytes)
			}
			if led.DroppedFailure != 0 {
				t.Errorf("graceful drain recorded failure drops: %v", led)
			}
			for name, n := range rt.ExecutorCounts() {
				if n < 1 {
					t.Errorf("operator %q left with %d executors", name, n)
				}
			}
		})
	}
}

// TestConformanceFailAndJoin checks hard-failure accounting (state written
// off, drops carry a cause) and join bookkeeping on the runtime.
func TestConformanceFailAndJoin(t *testing.T) {
	rtR, led, err := RunScenario(failSpec(), "static", 42, quickOpts())
	if err != nil {
		t.Fatalf("fail scenario: %v", err)
	}
	if !led.Conserved() {
		t.Errorf("ledger not conserved after failure: %v", led)
	}
	if rtR.NodeFails != 1 {
		t.Errorf("NodeFails = %d", rtR.NodeFails)
	}
	if rtR.LostStateBytes == 0 {
		t.Errorf("hard failure lost no state")
	}

	joinR, joinLed, err := RunScenario(joinSpec(), "elasticutor", 42, quickOpts())
	if err != nil {
		t.Fatalf("join scenario: %v", err)
	}
	if joinR.NodeJoins != 1 {
		t.Errorf("NodeJoins = %d", joinR.NodeJoins)
	}
	if !joinLed.Conserved() {
		t.Errorf("ledger not conserved after join: %v", joinLed)
	}
}

// TestRepartitionProtocol drives the §3.3 pause→drain→migrate→reroute
// protocol directly on a live runtime and checks its bookkeeping.
func TestRepartitionProtocol(t *testing.T) {
	rt, _, err := BuildScenario(quickSpec(), "rc", 42, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := rt.opOrder[0]
	before := append([]int(nil), o.snap.Load().routing...)
	if before == nil {
		t.Fatal("rc operator has no routing table")
	}
	moves := twoMovesFrom0(before)
	rt.AtVirtual(2*simtime.Second, func() { rt.startRepartition(o, moves) })
	r, err := rt.Run(quickSpec().Duration())
	if err != nil {
		t.Fatal(err)
	}
	if r.Repartitions < 1 {
		t.Fatalf("repartitions = %d, want >= 1", r.Repartitions)
	}
	if r.RepartitionMove < int64(len(moves)) {
		t.Errorf("moves recorded = %d, want >= %d", r.RepartitionMove, len(moves))
	}
	if r.RepartitionBytes <= 0 {
		t.Errorf("repartition moved no state bytes")
	}
	after := o.snap.Load().routing
	for _, m := range moves {
		if after[m.Shard] != m.To {
			t.Errorf("shard %d routed to %d, want %d", m.Shard, after[m.Shard], m.To)
		}
	}
	if !rt.Ledger().Conserved() {
		t.Errorf("ledger not conserved across repartition: %v", rt.Ledger())
	}
}

// twoMovesFrom0 moves the first two shards executor 0 owns to executor 1.
func twoMovesFrom0(routing []int) []balancer.Move {
	var moves []balancer.Move
	for s, owner := range routing {
		if owner == 0 {
			moves = append(moves, balancer.Move{Shard: s, From: 0, To: 1})
			if len(moves) == 2 {
				break
			}
		}
	}
	return moves
}
