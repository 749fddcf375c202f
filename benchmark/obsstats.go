package main

import (
	"bytes"
	"time"

	"repro/internal/obs"
)

// traceStats reports the size of the recorded program traces of a traced
// pass and how fast obs.Decode reads them back.
func traceStats(r *results, traces [][]byte) {
	var size, records int
	var decode time.Duration
	for _, b := range traces {
		if len(b) == 0 {
			continue
		}
		size += len(b)
		t0 := time.Now()
		tr, err := obs.Decode(bytes.NewReader(b))
		decode += time.Since(t0)
		if err != nil {
			r.issuef("recorded trace does not decode: %v", err)
			continue
		}
		records += 1 + len(tr.Events) + len(tr.Commands) + len(tr.Snaps) + len(tr.RPCs) + len(tr.Anomalies)
		if tr.End != nil {
			records++
		}
	}
	r.set("obs.trace_records", float64(records))
	r.set("obs.trace_mb", float64(size)/1e6)
	if decode > 0 {
		r.set("obs.decode_mb_s", float64(size)/1e6/decode.Seconds())
	}
}
