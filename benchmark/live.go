package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	elasticutor "repro"
	"repro/internal/engine"
	"repro/internal/obs"
	runpkg "repro/internal/run"
)

// sampleEvery is the harness sampler's period: 10 Hz, mostly asleep.
const sampleEvery = 100 * time.Millisecond

// liveSample is one sampler reading of a wall-clock run.
type liveSample struct {
	at        time.Duration // harness wall time since Start
	offered   int64         // cumulative weight admitted at the measured operator
	processed int64
	blocked   int64 // cumulative weight refused at the source
	queued    int
	cpu       time.Duration // CPU burned so far by this process and live agents
	snapCost  time.Duration // how long Run.Snapshot took
}

// liveSpec describes one fresh wall-clock run (runtime or dist backend).
type liveSpec struct {
	label         string // rung or phase, names the spans
	warm, measure time.Duration
	// agentCPU, when set, adds the live agents' CPU to every sample.
	agentCPU func() time.Duration
	// onTick runs on the sampler goroutine after every sample (dist-churn
	// injects its drain from here).
	onTick func(s liveSample, h *runpkg.Run)
	// record attaches a trace recorder and scrapes the metrics exporter at
	// 1 Hz: the traced pass.
	record bool
	hdr    obs.Header
}

// liveResult is what one run yields to the workload's arithmetic.
type liveResult struct {
	samples  []liveSample
	rep      *engine.Report
	err      error
	timedOut bool // Wait never returned; the run was abandoned
	overrun  time.Duration
	// memA/memB bracket the measured window.
	memA, memB runtime.MemStats
	lostEvents int
	traceBytes []byte
	exportCost []float64 // ms per WriteMetrics scrape
}

// splitSpan divides a run's span into warm-up (a fifth, at most 1 s) and the
// measured rest.
func splitSpan(span time.Duration) (warm, measure time.Duration) {
	warm = min(span/5, time.Second)
	return warm, span - warm
}

// offeredBetween returns the tuples offered to the measured operator between
// two samples (admitted plus refused at the source) and how many of them
// were refused.
func offeredBetween(a, b liveSample) (offered, refused int64) {
	refused = b.blocked - a.blocked
	return (b.offered - a.offered) + refused, refused
}

// window returns the first sample at or past warm-up and the last one at or
// before the nominal end: the harness's own measured span.
func (r *liveResult) window(spec liveSpec) (a, b liveSample, ok bool) {
	end := spec.warm + spec.measure
	found := false
	for _, s := range r.samples {
		if s.at < spec.warm || s.at > end {
			continue
		}
		if !found {
			a, found = s, true
		}
		b = s
	}
	return a, b, found && b.at > a.at
}

// driveLive starts an unstarted handle, samples it at 10 Hz through warm-up
// and the measured span, and waits for it with a deadline: a run whose Wait
// overruns is reported, one that never returns is abandoned as failed.
func driveLive(h *runpkg.Run, spec liveSpec, tr *tracer, parent int) *liveResult {
	res := &liveResult{}
	var traceBuf bytes.Buffer
	var rec *obs.Recorder
	var exp *obs.Exporter
	if spec.record {
		rec = elasticutor.AttachRecorder(h, &traceBuf, spec.hdr, obs.RecordOptions{SnapshotEvery: time.Second})
		exp = elasticutor.NewMetricsExporter(h)
	}
	total := spec.warm + spec.measure

	sp := tr.begin("Run.Start", spec.label, parent)
	start := time.Now()
	h.Start(context.Background())
	tr.end(sp)

	waitSpan := tr.begin("Run.Wait", spec.label, parent)
	type waitOut struct {
		rep *engine.Report
		err error
	}
	waited := make(chan waitOut, 1) // buffered: an abandoned run's Wait must not leak blocked
	go func() {
		rep, err := h.Wait()
		waited <- waitOut{rep, err}
	}()

	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		tookA, tookB := false, false
		nextScrape := time.Second
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
			elapsed := time.Since(start)
			if elapsed > total+sampleEvery {
				continue // past the nominal end: only the overrun is left to time
			}
			if !tookA && elapsed >= spec.warm {
				runtime.ReadMemStats(&res.memA)
				tookA = true
			}
			s0 := time.Now()
			ss := tr.begin("Run.Snapshot", spec.label, waitSpan)
			snap := h.Snapshot()
			tr.end(ss)
			cost := time.Since(s0)
			s := liveSample{at: time.Since(start), blocked: snap.Blocked, snapCost: cost, cpu: cpuSelf()}
			if spec.agentCPU != nil {
				s.cpu += spec.agentCPU()
			}
			for _, op := range snap.Operators {
				if op.FirstHop {
					s.offered, s.processed, s.queued = op.Offered, op.Processed, op.Queued
				}
			}
			res.samples = append(res.samples, s)
			if !tookB && elapsed >= total-sampleEvery {
				runtime.ReadMemStats(&res.memB)
				tookB = true
			}
			if exp != nil && elapsed >= nextScrape {
				nextScrape += time.Second
				e0 := time.Now()
				var sink bytes.Buffer
				exp.WriteMetrics(&sink)
				res.exportCost = append(res.exportCost, float64(time.Since(e0))/1e6)
			}
			if spec.onTick != nil {
				spec.onTick(s, h)
			}
		}
	}()

	// The run owes its report at the nominal end. Overruns are a metric; a
	// run still not back after the grace is abandoned as failed (the child's
	// exit takes its goroutines along).
	grace := 3 * total
	if grace < 30*time.Second {
		grace = 30 * time.Second
	}
	select {
	case out := <-waited:
		res.rep, res.err = out.rep, out.err
	case <-time.After(total + grace):
		res.timedOut = true
	}
	tr.end(waitSpan)
	res.overrun = time.Since(start) - total
	if res.overrun < 0 {
		res.overrun = 0
	}
	close(stopSampler)
	<-samplerDone
	if res.timedOut {
		res.err = fmt.Errorf("run %s did not return within %v of its nominal end", spec.label, grace)
		return res
	}
	res.lostEvents = h.LostEvents()
	if rec != nil {
		if err := rec.Finish(res.rep, res.lostEvents, res.err); err != nil && res.err == nil {
			res.err = err
		}
		res.traceBytes = traceBuf.Bytes()
	}
	return res
}

// setupSample starts an unstarted wall-clock run only to time its set-up:
// it waits for the first generated tuple (first holds its UnixNano), cancels
// the run and waits it out. Set-up is short and the host's speed drifts, so
// every workload takes such samples all along its run.
func setupSample(h *runpkg.Run, t0 time.Time, first *atomic.Int64) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for first.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if _, err := h.Wait(); err != nil && !errors.Is(err, context.Canceled) {
		return 0, err
	}
	at := first.Load()
	if at == 0 {
		return 0, fmt.Errorf("no tuple generated within 5 s of Start")
	}
	return time.Unix(0, at).Sub(t0), nil
}

// setupSamplesPerUnit is how many extra set-ups a wall-clock workload times
// before each of its runs.
const setupSamplesPerUnit = 3

// extraSetups takes setupSamplesPerUnit set-up samples (seconds) with
// sample; a failure is an issue and ends the batch.
func extraSetups(r *results, what string, sample func() (time.Duration, error)) []float64 {
	var out []float64
	for i := 0; i < setupSamplesPerUnit; i++ {
		d, err := sample()
		if err != nil {
			r.issuef("%s: set-up sample: %v", what, err)
			break
		}
		out = append(out, d.Seconds())
	}
	return out
}
