package main

import (
	"fmt"
	"io"
	"sort"
)

// iqrSpread is the distance between the first and third quartile as a share
// of the median, the quartiles as Python's statistics.quantiles(v, n=4)
// (exclusive method) gives them: the figure the driver judges.
func iqrSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// checkSpread prints median, min and max of every end-to-end metric per
// workload and compares two spreads to the metric's bound: the interquartile
// one the driver uses and the full range. It reports whether every
// interquartile spread (setup_s aside, as for the driver) is within bound.
func checkSpread(w io.Writer, names []string, runs map[string][]outcome, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ok := true
	for _, name := range names {
		fmt.Fprintf(w, "== spread %s over %d runs ==\n", name, len(runs[name]))
		fmt.Fprintf(w, "%-28s %14s %14s %14s %8s %8s %6s\n", "metric", "median", "min", "max", "iqr/med", "rng/med", "bound")
		for _, d := range defs {
			var vs []float64
			for _, o := range runs[name] {
				vs = append(vs, o.Metrics[d.Name].Value)
			}
			if len(vs) == 0 {
				continue
			}
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			med := median(vs)
			rng := 0.0
			if med != 0 {
				rng = (s[len(s)-1] - s[0]) / med
			}
			iqr := iqrSpread(vs)
			verdict := ""
			if !traced && d.Name != "setup_s" {
				switch {
				case iqr > d.Bound:
					verdict = "  EXCEEDS BOUND"
					ok = false
				case iqr > d.Bound/3:
					verdict = "  above bound/3"
				}
			}
			fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %8.4f %8.4f %6.2f%s\n",
				d.Name, med, s[0], s[len(s)-1], iqr, rng, d.Bound, verdict)
		}
	}
	return ok
}
