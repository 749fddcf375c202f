package workload

import (
	"math"
	"testing"

	"repro/internal/simtime"
	"repro/internal/stream"
)

func TestZipfRankProbabilities(t *testing.T) {
	z := NewZipf(100, 1.0, simtime.NewRand(1))
	// With s=1 over 100 keys, P(rank0)/P(rank1) = 2.
	p0 := z.Prob(z.HottestKeys(1)[0])
	p1 := z.Prob(z.HottestKeys(2)[1])
	if math.Abs(p0/p1-2) > 0.01 {
		t.Fatalf("p0/p1 = %v, want 2", p0/p1)
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	z := NewZipf(50, 0.5, simtime.NewRand(2))
	const draws = 200000
	counts := map[stream.Key]int{}
	for i := 0; i < draws; i++ {
		counts[z.Sample()]++
	}
	for _, k := range z.HottestKeys(5) {
		want := z.Prob(k) * draws
		got := float64(counts[k])
		if math.Abs(got-want)/want > 0.1 {
			t.Fatalf("key %d: got %v draws, want ~%v", k, got, want)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(20, 0.7, simtime.NewRand(3))
	sum := 0.0
	for k := 0; k < 20; k++ {
		sum += z.Prob(stream.Key(k))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestShuffleMovesMassButPreservesProfile(t *testing.T) {
	z := NewZipf(1000, 0.5, simtime.NewRand(4))
	before := z.HottestKeys(10)
	beforeP0 := z.Prob(before[0])
	z.Shuffle()
	after := z.HottestKeys(10)
	if z.Shuffles() != 1 {
		t.Fatalf("Shuffles = %d", z.Shuffles())
	}
	// The hottest key almost surely changed identity…
	sameAll := true
	for i := range before {
		if before[i] != after[i] {
			sameAll = false
			break
		}
	}
	if sameAll {
		t.Fatal("shuffle left the hot set identical (p ~ 0)")
	}
	// …but the probability profile is untouched.
	if p := z.Prob(after[0]); math.Abs(p-beforeP0) > 1e-12 {
		t.Fatalf("hot-rank probability changed: %v vs %v", p, beforeP0)
	}
}

func TestShuffleKeepsKeySpace(t *testing.T) {
	z := NewZipf(64, 0.5, simtime.NewRand(5))
	z.Shuffle()
	seen := map[stream.Key]bool{}
	for _, k := range z.HottestKeys(64) {
		if k >= 64 || seen[k] {
			t.Fatalf("rank map is not a permutation: key %d", k)
		}
		seen[k] = true
	}
}

func TestSetSkewMorphsProfileInPlace(t *testing.T) {
	z := NewZipf(1000, 0.2, simtime.NewRand(9))
	hot := z.HottestKeys(1)[0]
	flat := z.Prob(hot)
	z.SetSkew(1.2)
	sharp := z.Prob(hot)
	if sharp <= flat*2 {
		t.Fatalf("skew 0.2→1.2 did not concentrate mass: %v -> %v", flat, sharp)
	}
	// The rank→key mapping is untouched.
	if got := z.HottestKeys(1)[0]; got != hot {
		t.Fatalf("SetSkew moved the hot identity: %d -> %d", hot, got)
	}
	// Distribution still sums to 1.
	sum := 0.0
	for k := 0; k < 1000; k++ {
		sum += z.Prob(stream.Key(k))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v after SetSkew", sum)
	}
}

func TestRotateShiftsHotSetDeterministically(t *testing.T) {
	z := NewZipf(100, 0.8, simtime.NewRand(10))
	before := z.HottestKeys(5)
	z.Rotate(17)
	after := z.HottestKeys(5)
	for i := range before {
		want := stream.Key((int(before[i]) + 17) % 100)
		if after[i] != want {
			t.Fatalf("rank %d: %d -> %d, want %d", i, before[i], after[i], want)
		}
	}
	// Still a permutation.
	seen := map[stream.Key]bool{}
	for _, k := range z.HottestKeys(100) {
		if k >= 100 || seen[k] {
			t.Fatalf("rotate broke the permutation at key %d", k)
		}
		seen[k] = true
	}
	// Rotating by the key-space size is a no-op.
	snap := z.HottestKeys(100)
	z.Rotate(100)
	for i, k := range z.HottestKeys(100) {
		if snap[i] != k {
			t.Fatal("full rotation changed the mapping")
		}
	}
}

func TestPartialShuffleChurnsOnlyAFraction(t *testing.T) {
	z := NewZipf(1000, 0.5, simtime.NewRand(11))
	before := z.HottestKeys(1000)
	z.PartialShuffle(0.2)
	after := z.HottestKeys(1000)
	moved := 0
	seen := map[stream.Key]bool{}
	for i := range after {
		if before[i] != after[i] {
			moved++
		}
		if after[i] >= 1000 || seen[after[i]] {
			t.Fatalf("partial shuffle broke the permutation at rank %d", i)
		}
		seen[after[i]] = true
	}
	if moved == 0 {
		t.Fatal("nothing churned")
	}
	if moved > 250 {
		t.Fatalf("churned %d ranks, want ≲ 200 (fraction 0.2)", moved)
	}
	// Degenerate fractions are no-ops.
	snap := z.HottestKeys(1000)
	z.PartialShuffle(0)
	z.PartialShuffle(0.0001)
	for i, k := range z.HottestKeys(1000) {
		if snap[i] != k {
			t.Fatal("no-op fraction mutated the mapping")
		}
	}
}

func TestSampleInRange(t *testing.T) {
	z := NewZipf(10, 0.5, simtime.NewRand(6))
	for i := 0; i < 10000; i++ {
		if k := z.Sample(); k >= 10 {
			t.Fatalf("sample out of range: %d", k)
		}
	}
}

func TestDefaultSpec(t *testing.T) {
	s := DefaultSpec()
	if s.Keys != 10000 || s.Skew != 0.5 || s.TupleBytes != 128 ||
		s.CPUCost != simtime.Millisecond || s.ShardStateKB != 32 {
		t.Fatalf("defaults = %+v", s)
	}
	if s.ShuffleInterval() != 0 {
		t.Fatal("static default should have no shuffle interval")
	}
	di := s.DataIntensive()
	if di.TupleBytes != 8192 {
		t.Fatalf("data-intensive bytes = %d", di.TupleBytes)
	}
	hd := s.HighlyDynamic()
	if hd.ShufflesPerMin != 16 {
		t.Fatalf("highly dynamic ω = %v", hd.ShufflesPerMin)
	}
	if hd.ShuffleInterval() != simtime.Duration(3750*simtime.Millisecond) {
		t.Fatalf("shuffle interval = %v", hd.ShuffleInterval())
	}
}

func TestRateFuncs(t *testing.T) {
	c := ConstantRate(100)
	if c(0) != 100 || c(simtime.Time(simtime.Minute)) != 100 {
		t.Fatal("ConstantRate wrong")
	}
	st := StepRate(10, 50, simtime.Time(simtime.Second))
	if st(0) != 10 || st(simtime.Time(2*simtime.Second)) != 50 {
		t.Fatal("StepRate wrong")
	}
	sr := SineRate(100, 50, simtime.Minute)
	if v := sr(simtime.Time(15 * simtime.Second)); math.Abs(v-150) > 1e-6 {
		t.Fatalf("SineRate peak = %v", v)
	}
	neg := SineRate(10, 100, simtime.Minute)
	if v := neg(simtime.Time(45 * simtime.Second)); v != 0 {
		t.Fatalf("SineRate should clamp at 0, got %v", v)
	}
}

// TestGuideMatchesDefinition checks the rank-driven guide construction
// against the definition it accelerates — guide[i] is the first rank whose
// CDF reaches bucket i's left edge i/g — over profiles whose CDF lands
// exactly on bucket edges (uniform), far from them, and on a single rank.
func TestGuideMatchesDefinition(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 0.5}, {2, 0}, {3, 1}, {64, 0}, {100, 0}, {1000, 0.5}, {2500, 0.75}, {10000, 0.5}, {10000, 2}, {4096, 0}} {
		z := NewZipf(tc.n, tc.s, simtime.NewRand(1))
		g := len(z.guide) - 1
		if g != tc.n*guidePerRank {
			t.Fatalf("n=%d: guide has %d buckets, want %d", tc.n, g, tc.n*guidePerRank)
		}
		r := 0
		for i := 0; i <= g; i++ {
			edge := float64(i) / float64(g)
			for r < tc.n && z.cdf[r] < edge {
				r++
			}
			want := r
			if want == tc.n {
				want = tc.n - 1
			}
			if int(z.guide[i]) != want {
				t.Fatalf("n=%d s=%v: guide[%d] = %d, want %d", tc.n, tc.s, i, z.guide[i], want)
			}
		}
	}
}
