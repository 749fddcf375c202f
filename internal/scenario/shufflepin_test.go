package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestShufflePin pins a small run shaped like the benchmark's sim-shuffle
// workload (paper Fig 6 cell: ω = 16 key shuffles/min at 90 % load, Batch=1 so
// a tuple is an event, per-key order asserted) for both paradigms the
// workload runs. The fingerprints carry Report.Events: any change to the event
// kernel or to the emit → route → serve path that adds, drops or reorders a
// single event shows up here. The values were captured at the commit before
// the kernel was rewritten.
func TestShufflePin(t *testing.T) {
	const virtual, warm = 8 * simtime.Second, 2800 * simtime.Millisecond
	want := map[engine.Paradigm]string{
		engine.ResourceCentric: "shuffle-pin policy=rc gen=125483 proc=113596 blocked=5968 dropped=0 events=569889 thr=21845.385 latMean=985979556 latP99=2605350751 reassign=0 inter=0 migB=0 remoteB=0 repart=2 repB=917504 joins=0 drains=0 fails=0 retired=0 lostB=0 churnErr=0",
		engine.Elasticutor:     "shuffle-pin policy=elasticutor gen=112906 proc=115938 blocked=69703 dropped=0 events=462922 thr=22295.769 latMean=340326199 latP99=2153182439 reassign=727 inter=7 migB=229376 remoteB=79872 repart=0 repB=0 joins=0 drains=0 fails=0 retired=0 lostB=0 churnErr=0",
	}
	for _, par := range []engine.Paradigm{engine.ResourceCentric, engine.Elasticutor} {
		spec := workload.DefaultSpec()
		spec.ShufflesPerMin = 16
		spec.Keys, spec.Skew = 2500, 0.75
		opt := core.MicroOptions{
			Paradigm: par, Nodes: 4, SourceExecutors: 4, Y: 4, Z: 256, OpShards: 1024,
			Batch: 1, Seed: 1, WarmUp: warm, AssertOrder: true, Spec: spec,
		}
		opt.Rate = 0.9 * float64(opt.Nodes*8-opt.SourceExecutors) / spec.CPUCost.Seconds()
		m, err := core.NewMicro(opt)
		if err != nil {
			t.Fatalf("%v: %v", par, err)
		}
		got := Fingerprint("shuffle-pin", m.Engine.Run(virtual))
		if got != want[par] {
			t.Errorf("%v drifted\n got: %s\nwant: %s", par, got, want[par])
		}
	}
}
