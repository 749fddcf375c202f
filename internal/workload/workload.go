// Package workload generates the synthetic inputs of the paper's
// micro-benchmarks (§5.1–5.3): a key space with Zipf-distributed frequencies,
// periodic random permutations of the key→frequency mapping ("shuffles", ω
// per minute), and arrival-rate processes.
package workload

import (
	"math"
	"sort"

	"repro/internal/simtime"
	"repro/internal/stream"
)

// Zipf samples keys 0..n-1 with P(rank r) ∝ 1/(r+1)^s, the distribution the
// paper uses with n = 10,000 and skew s = 0.5. Sampling is by binary search
// over the CDF (O(log n)); the mapping from rank to key identity is a
// permutation that Shuffle re-randomizes to emulate workload dynamics.
type Zipf struct {
	cdf       []float64 // cumulative probability by rank
	guide     []int32   // CDF inversion guide: bucket → first candidate rank
	rankToKey []stream.Key
	rng       *simtime.Rand
	shuffles  int
}

// guidePerRank sets the guide-table resolution (buckets per rank). Finer
// buckets shrink the per-sample scan window at the cost of table memory
// (4 bytes per bucket).
const guidePerRank = 4

// buildGuide precomputes, for each of g uniform buckets of [0,1), the first
// rank whose CDF reaches the bucket's left edge. Sample then only scans the
// few ranks spanning its draw's bucket instead of binary-searching the whole
// CDF. The guide is a pure accelerator: it never changes which rank a given
// uniform draw maps to, so sampling sequences (and the simulator's pinned
// goldens) are byte-identical with or without it.
func (z *Zipf) buildGuide() {
	g := len(z.cdf) * guidePerRank
	if cap(z.guide) >= g+1 {
		z.guide = z.guide[:g+1]
	} else {
		z.guide = make([]int32, g+1)
	}
	// Rank by rank rather than bucket by bucket: rank r is the answer for
	// every bucket whose left edge lies in (cdf[r-1], cdf[r]], so one multiply
	// per rank finds where its run of buckets ends — a quarter of the work of
	// dividing out every bucket's edge, on a table every engine build makes.
	i := 0
	for r, c := range z.cdf {
		for last := lastEdgeAtMost(c, g); i <= last; i++ {
			z.guide[i] = int32(r)
		}
	}
	for ; i <= g; i++ {
		z.guide[i] = int32(len(z.cdf) - 1)
	}
}

// lastEdgeAtMost returns the largest bucket i in [0, g] whose left edge
// float64(i)/float64(g) is at most c (c >= 0). c*g lands within g ulps of the
// true product, so unless it is that close to an integer its floor is the
// answer; otherwise the edge comparison itself, exactly as Sample's scan
// evaluates it, settles which side the bucket falls on.
func lastEdgeAtMost(c float64, g int) int {
	gf := float64(g)
	t := c * gf
	if t >= gf {
		t = gf
	}
	i := int(t)
	if frac := t - float64(i); frac > 1e-6 && frac < 1-1e-6 {
		return i
	}
	for i < g && float64(i+1)/gf <= c {
		i++
	}
	for i > 0 && float64(i)/gf > c {
		i--
	}
	return i
}

// NewZipf builds a sampler over n keys with skew s, seeded deterministically.
func NewZipf(n int, s float64, rng *simtime.Rand) *Zipf {
	if n <= 0 {
		panic("workload: Zipf needs n > 0")
	}
	z := &Zipf{cdf: make([]float64, n), rankToKey: make([]stream.Key, n), rng: rng}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := 0; r < n; r++ {
		z.cdf[r] /= sum
		z.rankToKey[r] = stream.Key(r)
	}
	z.buildGuide()
	return z
}

// N returns the key-space size.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one key. The guide table narrows the CDF inversion to a few
// candidate ranks; the result is identical to a full binary search for every
// draw (see buildGuide), just without paying O(log n) cache-missing probes on
// the source hot path.
func (z *Zipf) Sample() stream.Key {
	u := z.rng.Float64()
	g := len(z.guide) - 1
	b := int(u * float64(g))
	// Clamp the bucket and widen one bucket each side: float rounding in
	// u*g can place the draw just outside its nominal bucket.
	lo, hi := b-1, b+2
	if lo < 0 {
		lo = 0
	}
	if hi > g {
		hi = g
	}
	r := int(z.guide[lo])
	last := int(z.guide[hi])
	for r < last && z.cdf[r] < u {
		r++
	}
	if z.cdf[r] < u {
		// Outside the widened window — impossible by construction, but a
		// full search keeps the result exact no matter what floats do.
		r = sort.SearchFloat64s(z.cdf, u)
		if r >= len(z.cdf) {
			r = len(z.cdf) - 1
		}
	}
	return z.rankToKey[r]
}

// Prob returns the probability mass currently assigned to key k (for tests
// and analytical expectations). O(n); not used on the hot path.
func (z *Zipf) Prob(k stream.Key) float64 {
	for r, key := range z.rankToKey {
		if key == k {
			if r == 0 {
				return z.cdf[0]
			}
			return z.cdf[r] - z.cdf[r-1]
		}
	}
	return 0
}

// Shuffle applies a fresh random permutation to the rank→key mapping: the
// same frequency *profile* is redistributed over different key identities,
// exactly the paper's "shuffle the frequencies of tuple keys by applying a
// random permutation ω times per minute" (§5.1).
func (z *Zipf) Shuffle() {
	p := z.rng.Perm(len(z.rankToKey))
	next := make([]stream.Key, len(p))
	for r, idx := range p {
		next[r] = stream.Key(idx)
	}
	z.rankToKey = next
	z.shuffles++
}

// Shuffles returns how many shuffles have been applied.
func (z *Zipf) Shuffles() int { return z.shuffles }

// SetSkew rebuilds the frequency profile with a new skew factor, keeping the
// current rank→key mapping. Scenario skew-drift phases call this repeatedly
// to morph a near-uniform workload into a sharply skewed one (or back).
func (z *Zipf) SetSkew(s float64) {
	var sum float64
	for r := range z.cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	z.buildGuide()
}

// Rotate shifts the rank→key mapping by n positions: every frequency rank
// moves to the key n identities over, so the hot set migrates to a disjoint
// key range deterministically — the scenario engine's "hotspot migration"
// dynamic (a directed cousin of Shuffle's random permutation).
func (z *Zipf) Rotate(n int) {
	size := len(z.rankToKey)
	if size == 0 {
		return
	}
	n %= size
	if n < 0 {
		n += size
	}
	if n == 0 {
		return
	}
	next := make([]stream.Key, size)
	for r, k := range z.rankToKey {
		next[r] = stream.Key((int(k) + n) % size)
	}
	z.rankToKey = next
}

// PartialShuffle permutes the key identities of a random frac of the ranks
// (key churn: a slice of the population is replaced while the rest keeps its
// traffic). frac is clamped to [0, 1]; fewer than two affected ranks is a
// no-op.
func (z *Zipf) PartialShuffle(frac float64) {
	if frac > 1 {
		frac = 1
	}
	m := int(frac * float64(len(z.rankToKey)))
	if m < 2 {
		return
	}
	ranks := z.rng.Perm(len(z.rankToKey))[:m]
	vals := make([]stream.Key, m)
	for i, r := range ranks {
		vals[i] = z.rankToKey[r]
	}
	for i, j := range z.rng.Perm(m) {
		z.rankToKey[ranks[i]] = vals[j]
	}
}

// HottestKeys returns the top-k keys by current probability mass, hottest
// first. Used by tests and by the hotspot example.
func (z *Zipf) HottestKeys(k int) []stream.Key {
	if k > len(z.rankToKey) {
		k = len(z.rankToKey)
	}
	out := make([]stream.Key, k)
	copy(out, z.rankToKey[:k])
	return out
}

// Spec bundles the micro-benchmark workload parameters of §5.1 with their
// paper defaults.
type Spec struct {
	Keys           int              // distinct keys (default 10,000)
	Skew           float64          // zipf skew factor (default 0.5)
	TupleBytes     int              // payload size of one tuple (default 128)
	CPUCost        simtime.Duration // per-tuple processing cost (default 1 ms)
	ShardStateKB   int              // shard state size in KB (default 32)
	ShufflesPerMin float64          // ω, key-frequency shuffles per minute
}

// DefaultSpec returns the paper's default micro-benchmark workload.
func DefaultSpec() Spec {
	return Spec{
		Keys:         10000,
		Skew:         0.5,
		TupleBytes:   128,
		CPUCost:      simtime.Millisecond,
		ShardStateKB: 32,
	}
}

// DataIntensive returns the §5.3 data-intensive variant (8 KB tuples).
func (s Spec) DataIntensive() Spec { s.TupleBytes = 8192; return s }

// HighlyDynamic returns the §5.3 highly dynamic variant (ω = 16).
func (s Spec) HighlyDynamic() Spec { s.ShufflesPerMin = 16; return s }

// ShuffleInterval returns the virtual time between shuffles, or 0 if the
// workload is static (ω = 0).
func (s Spec) ShuffleInterval() simtime.Duration {
	if s.ShufflesPerMin <= 0 {
		return 0
	}
	return simtime.FromSeconds(simtime.Minute.Seconds() / s.ShufflesPerMin)
}

// RateFunc gives the offered load (tuples/second) at a virtual time. The
// throughput experiments use an effectively unbounded rate and let
// backpressure find the sustainable maximum; latency-focused runs use finite
// rates.
type RateFunc func(t simtime.Time) float64

// ConstantRate returns a fixed-rate function.
func ConstantRate(perSec float64) RateFunc {
	return func(simtime.Time) float64 { return perSec }
}

// StepRate returns baseline until at, then level (a workload surge).
func StepRate(baseline, level float64, at simtime.Time) RateFunc {
	return func(t simtime.Time) float64 {
		if t < at {
			return baseline
		}
		return level
	}
}

// SineRate oscillates around mean with the given amplitude and period,
// clamped at zero. Used to emulate diurnal-style fluctuation.
func SineRate(mean, amplitude float64, period simtime.Duration) RateFunc {
	return func(t simtime.Time) float64 {
		v := mean + amplitude*math.Sin(2*math.Pi*t.Seconds()/period.Seconds())
		if v < 0 {
			return 0
		}
		return v
	}
}
