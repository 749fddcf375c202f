// Package metrics provides the measurement primitives the Elasticutor
// evaluation reports: latency histograms with percentile queries, windowed
// throughput rates, and cumulative counters for state-migration and
// remote-transfer volume (Table 2).
//
// Everything operates on virtual time (simtime.Time); nothing here reads the
// wall clock.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
)

// Histogram is a log-bucketed latency histogram, HDR-style: buckets grow
// geometrically so that relative error is bounded (~5%) across nine orders of
// magnitude, from 1 µs to ~1000 s.
type Histogram struct {
	buckets []uint64 // allocated by the first sample, not by NewHistogram: an engine build makes one per executor
	count   uint64
	sum     float64          // seconds (Mean keeps its historical float path)
	total   simtime.Duration // exact Σ sample × weight (Sum; stage tiling)
	min     simtime.Duration
	max     simtime.Duration
}

const (
	histMinVal      = float64(simtime.Microsecond)
	histGrowth      = 1.1
	histBucketCount = 400
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketUpper returns the upper bound of bucket b.
func bucketUpper(b int) simtime.Duration {
	if b == 0 {
		return simtime.Duration(histMinVal)
	}
	return simtime.Duration(histMinVal * math.Pow(histGrowth, float64(b)))
}

// Observe records one latency sample with the given weight (number of tuples
// the sample represents; batched simulations use weight > 1).
func (h *Histogram) Observe(d simtime.Duration, weight int) {
	if d < 0 {
		d = 0
	}
	if h.buckets == nil {
		h.buckets = make([]uint64, histBucketCount)
	}
	h.buckets[bucketOf(d)] += uint64(weight)
	h.count += uint64(weight)
	h.sum += d.Seconds() * float64(weight)
	h.total += d * simtime.Duration(weight)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded samples (weighted).
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean latency, or 0 if empty.
func (h *Histogram) Mean() simtime.Duration {
	if h.count == 0 {
		return 0
	}
	return simtime.FromSeconds(h.sum / float64(h.count))
}

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() simtime.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() simtime.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the latency at quantile q in [0,1]; q=0.99 gives p99.
// The value returned is the upper bound of the containing bucket, so it
// overestimates by at most one bucket's relative width. q >= 1 returns
// exactly Max(): the largest sample is the 100th percentile by definition,
// with no bucket rounding.
func (h *Histogram) Quantile(q float64) simtime.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, n := range h.buckets {
		cum += n
		if cum >= target {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Sum returns the total observed latency (Σ sample × weight), exact — no
// float rounding — so stage components can be asserted to tile end-to-end
// latency to the nanosecond.
func (h *Histogram) Sum() simtime.Duration {
	return h.total
}

// CumulativeLE returns the weighted number of samples recorded in buckets
// whose upper bound is at most d — the `le` semantics of a Prometheus
// histogram bucket, subject to this histogram's ~5% bucket rounding.
func (h *Histogram) CumulativeLE(d simtime.Duration) uint64 {
	var cum uint64
	for b, n := range h.buckets {
		if bucketUpper(b) > d {
			break
		}
		cum += n
	}
	return cum
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram()
	c.Merge(h)
	return c
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = make([]uint64, histBucketCount)
	}
	for b, n := range other.buckets {
		h.buckets[b] += n
	}
	h.count += other.count
	h.sum += other.sum
	h.total += other.total
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.total = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Rate measures an event rate over a fixed sliding window of virtual time,
// implemented as a ring of sub-buckets. It answers "tuples/s over the last
// second" style questions (Fig 7's instantaneous throughput).
type Rate struct {
	window    simtime.Duration
	slot      simtime.Duration
	buckets   []float64
	head      int          // index of the bucket containing headStart
	headStart simtime.Time // start time of the head bucket
	total     float64      // cumulative count, all time
}

// NewRate returns a rate meter over the given window using 20 sub-buckets.
func NewRate(window simtime.Duration) *Rate {
	const slots = 20
	return &Rate{
		window:  window,
		slot:    window / slots,
		buckets: make([]float64, slots),
	}
}

func (r *Rate) advance(now simtime.Time) {
	for now >= r.headStart.Add(r.slot) {
		r.head = (r.head + 1) % len(r.buckets)
		r.buckets[r.head] = 0
		r.headStart = r.headStart.Add(r.slot)
		// Fast-forward a long-idle meter without spinning slot by slot.
		if now.Sub(r.headStart) > r.window*2 {
			for i := range r.buckets {
				r.buckets[i] = 0
			}
			r.headStart = simtime.Time(int64(now) / int64(r.slot) * int64(r.slot))
		}
	}
}

// Add records n events at virtual time now.
func (r *Rate) Add(now simtime.Time, n float64) {
	r.advance(now)
	r.buckets[r.head] += n
	r.total += n
}

// PerSecond returns the event rate over the trailing window as of now.
func (r *Rate) PerSecond(now simtime.Time) float64 {
	r.advance(now)
	var sum float64
	for _, b := range r.buckets {
		sum += b
	}
	return sum / r.window.Seconds()
}

// Total returns the all-time cumulative count.
func (r *Rate) Total() float64 { return r.total }

// Counter is a cumulative counter with a helper to compute rates between
// snapshots. Used for state-migration bytes, remote-transfer bytes, etc.
type Counter struct{ v float64 }

// Add increments the counter.
func (c *Counter) Add(n float64) { c.v += n }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.v }

// Series is an append-only time series of (virtual time, value) points, used
// to reproduce the timeline figures (Fig 7, Fig 15, Fig 16).
type Series struct {
	Name   string
	Times  []simtime.Time
	Values []float64
}

// Append adds a point; times must be non-decreasing.
func (s *Series) Append(t simtime.Time, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic("metrics: series time went backwards")
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// Mean returns the mean of the series values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Quantile returns the q-quantile of the series values (exact, by sorting).
func (s *Series) Quantile(q float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	vals := append([]float64(nil), s.Values...)
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}
