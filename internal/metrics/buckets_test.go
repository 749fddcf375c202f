package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// deriveBucketTables recomputes bucketLo and octaveBucket from bucketFormula:
// each threshold by galloping from the previous one and then bisecting, the
// way a start-up derivation would have to (about 140 µs, against 0 for the
// literals).
func deriveBucketTables() (lo []uint64, oct [64]uint16) {
	top := bucketFormula(math.MaxInt64)
	lo = make([]uint64, top+2)
	for b := 1; b <= top; b++ {
		l := simtime.Duration(lo[b-1]) // bucketFormula(l) < b
		h := max(l, 1)
		for bucketFormula(h) < b {
			if h > math.MaxInt64/2 {
				h = math.MaxInt64
				break
			}
			h *= 2
		}
		for h-l > 1 {
			m := l + (h-l)/2
			if bucketFormula(m) >= b {
				h = m
			} else {
				l = m
			}
		}
		lo[b] = uint64(h)
	}
	lo[top+1] = math.MaxUint64
	for n := 1; n < len(oct); n++ {
		oct[n] = uint16(bucketFormula(simtime.Duration(1) << (n - 1)))
	}
	return lo, oct
}

// formatBucketTables renders the tables as the Go literals buckets.go holds.
func formatBucketTables(lo []uint64, oct [64]uint16) string {
	var sb strings.Builder
	sb.WriteString("var bucketLo = [...]uint64{\n")
	for i := 0; i < len(lo); i += 4 {
		row := make([]string, 0, 4)
		for _, v := range lo[i:min(i+4, len(lo))] {
			if v == math.MaxUint64 {
				row = append(row, "math.MaxUint64")
			} else {
				row = append(row, fmt.Sprint(v))
			}
		}
		fmt.Fprintf(&sb, "\t%s,\n", strings.Join(row, ", "))
	}
	sb.WriteString("}\n\nvar octaveBucket = [64]uint16{\n")
	for i := 0; i < len(oct); i += 16 {
		row := make([]string, 0, 16)
		for _, v := range oct[i : i+16] {
			row = append(row, fmt.Sprint(v))
		}
		fmt.Fprintf(&sb, "\t%s,\n", strings.Join(row, ", "))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestBucketOfMatchesFormula holds the table-driven bucketOf to the
// logarithmic definition: the committed tables equal a fresh derivation, and
// bucketOf agrees with bucketFormula at every threshold ±2 ns, at the range
// edges, and on a million log-uniform random durations.
func TestBucketOfMatchesFormula(t *testing.T) {
	lo, oct := deriveBucketTables()
	if len(lo) != len(bucketLo) || oct != octaveBucket {
		t.Fatalf("bucket tables are stale; replace them in buckets.go with:\n%s", formatBucketTables(lo, oct))
	}
	for b := range lo {
		if lo[b] != bucketLo[b] {
			t.Fatalf("bucketLo[%d] = %d, the formula gives %d; replace the tables in buckets.go with:\n%s",
				b, bucketLo[b], lo[b], formatBucketTables(lo, oct))
		}
	}

	check := func(d simtime.Duration) {
		t.Helper()
		if got, want := bucketOf(d), bucketFormula(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, bucketFormula = %d", d, got, want)
		}
	}
	for _, d := range []simtime.Duration{-1, 0, 1, 999, 1000, 1001, math.MaxInt64 - 1, math.MaxInt64} {
		check(d)
	}
	for b := 1; b < len(bucketLo)-1; b++ {
		th := simtime.Duration(bucketLo[b])
		for k := simtime.Duration(-2); k <= 2; k++ {
			check(th + k)
		}
	}
	rng := rand.New(rand.NewSource(1))
	maxLog := math.Log(math.MaxInt64) - 1e-12 // keep exp below 2^63
	for i := 0; i < 1_000_000; i++ {
		check(simtime.Duration(math.Exp(rng.Float64() * maxLog)))
	}
}

// TestHistogramObserveDoesNotAllocate pins Observe at zero allocations once
// the first sample has sized the bucket array.
func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram()
	h.Observe(simtime.Millisecond, 1)
	d := simtime.Duration(0)
	if a := testing.AllocsPerRun(1000, func() {
		d = d*7 + 12345
		h.Observe(d%simtime.Second, 2)
	}); a != 0 {
		t.Errorf("Observe: %v allocations per call, want 0", a)
	}
}

func BenchmarkBucketOf(b *testing.B) {
	ds := make([]simtime.Duration, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range ds {
		ds[i] = simtime.Duration(math.Exp(rng.Float64() * math.Log(float64(simtime.Second))))
	}
	i := 0
	for b.Loop() {
		bucketOf(ds[i&1023])
		i++
	}
}
