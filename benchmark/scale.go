package main

import "time"

// params carries everything a workload run is told: the driver's arguments
// plus the harness switches. Every duration and repetition count below is a
// function of seconds alone (never of how fast the host is), so one seed and
// one --seconds always give the same inputs and the same amount of work.
type params struct {
	workload string
	seed     uint64
	seconds  float64 // measured span the workload is dimensioned for
	traced   bool
	smoke    bool // tiny simulator dimensions, for the smoke test
	outDir   string
}

// frac scales a nominal duration by seconds/nominalSeconds.
func (p params) frac() float64 { return p.seconds / nominalSeconds }

func (p params) dur(nominal time.Duration) time.Duration {
	return time.Duration(float64(nominal) * p.frac())
}

// count scales a nominal repetition count, never below 1.
func (p params) count(nominal int) int {
	n := int(float64(nominal)*p.frac() + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// tracedShare is the part of a traced pass's time budget left for the
// workload proper once the untraced reference unit and the layer probes have
// had theirs, so both passes take about the same wall time.
const tracedShare = 0.7

// workFrac is frac for the workload proper: shrunk on the traced pass.
func (p params) workFrac() float64 {
	if p.traced {
		return p.frac() * tracedShare
	}
	return p.frac()
}
