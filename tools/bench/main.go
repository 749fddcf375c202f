// Command bench executes the repo's benchmarks through `go test -bench` and
// records the results as a JSON baseline, seeding the perf trajectory across
// PRs:
//
//	go run ./tools/bench                  # full run, writes BENCH_6.json
//	go run ./tools/bench -smoke           # CI: component benches once, no file
//	go run ./tools/bench -bench Fig8 -benchtime 3x -out /tmp/fig8.json
//	go run ./tools/bench -compare BENCH_5.json   # flag >20% regressions
//
// The default -benchtime of 100ms gives the component microbenches a stable
// sample while each paper-artifact benchmark (a full quick-scale experiment
// per iteration) runs exactly once. The output maps benchmark name →
// {ns_per_op, bytes_per_op, allocs_per_op, extra custom metrics}; wall-clock
// numbers are machine-dependent — compare trajectories on one box, not
// across boxes.
//
// -compare loads a previous baseline and diffs the benches matching
// -comparefilter (default: the stable microbenches — Component*, the hot-path
// admission and routing benches; full-experiment rows run once and are too
// noisy): any ns/op more than -threshold (default 20%) above the baseline is
// flagged as a REGRESSION and the exit code is 2, the ROADMAP's
// perf-trajectory tripwire. The same gate holds the allocFree bench to
// 0 allocs/op, whatever the baseline recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded measurement. Extra carries custom
// b.ReportMetric units (e.g. "tuples/s") verbatim.
type Result struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Baseline is the file format of BENCH_*.json.
type Baseline struct {
	Schema     string            `json:"schema"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	BenchTime  string            `json:"benchtime"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		pattern   = flag.String("bench", ".", "benchmark name pattern (go test -bench)")
		benchtime = flag.String("benchtime", "100ms", "per-benchmark time or iteration budget (go test -benchtime)")
		pkgs      = flag.String("pkg", "./...", "package pattern(s) to bench, space-separated")
		out       = flag.String("out", "BENCH_6.json", "output JSON path ('' = stdout only)")
		smoke     = flag.Bool("smoke", false, "CI mode: run the component benches once each, write nothing, fail on any error")
		compare   = flag.String("compare", "", "previous baseline JSON to diff against")
		filter    = flag.String("comparefilter", "Component|HotPathAdmission|RouteBatch", "regexp choosing which benches -compare diffs")
		threshold = flag.Float64("threshold", 0.20, "regression threshold for -compare (fraction of baseline ns/op)")
		history   = flag.Bool("history", false, "aggregate committed BENCH_*.json into a perf-trajectory markdown table on stdout (runs nothing)")
	)
	flag.Parse()
	if *history {
		if err := writeHistory(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *smoke {
		*pattern, *benchtime, *out = "Component", "1x", ""
	}
	filterRe, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -comparefilter: %v\n", err)
		os.Exit(1)
	}

	args := []string{"test", "-run", "^$", "-bench", *pattern, "-benchtime", *benchtime, "-benchmem"}
	args = append(args, strings.Fields(*pkgs)...)
	fmt.Fprintf(os.Stderr, "go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: go test failed: %v\n%s", err, outBytes)
		os.Exit(1)
	}

	results := parse(string(outBytes))
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no benchmarks matched %q\n%s", *pattern, outBytes)
		os.Exit(1)
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		fmt.Printf("%-44s %12.1f ns/op %8d allocs/op\n", name, r.NsPerOp, r.AllocsPerOp)
	}
	regressions := 0
	if *compare != "" {
		var err error
		if regressions, err = compareBaseline(*compare, results, filterRe, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		regressions += checkAllocFree(results)
	}
	if *smoke {
		fmt.Fprintf(os.Stderr, "bench: smoke OK, %d benchmarks ran\n", len(results))
		exitOnRegressions(regressions)
		return
	}
	if *out == "" {
		exitOnRegressions(regressions)
		return
	}
	b := Baseline{
		Schema:     "elasticutor-bench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchTime:  *benchtime,
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d benchmarks)\n", *out, len(results))
	exitOnRegressions(regressions)
}

// allocFree is the bench whose steady state must not allocate: a nonzero
// allocs/op in a -compare run counts as a regression. The simulator pays
// three clock events per tuple, so one allocation per event is most of the
// 6–8 allocations per tuple PR 12 removed.
const allocFree = "BenchmarkComponentClockEvents"

// checkAllocFree returns 1 if this run ran allocFree and it allocated.
func checkAllocFree(current map[string]Result) int {
	r, ok := current[allocFree]
	if !ok || r.AllocsPerOp == 0 {
		return 0
	}
	fmt.Printf("%-44s %12d allocs/op  want 0  REGRESSION\n", allocFree, r.AllocsPerOp)
	return 1
}

func exitOnRegressions(n int) {
	if n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d regression(s) beyond threshold\n", n)
		os.Exit(2)
	}
}

// compareBaseline diffs the filter-matching benches of the current run
// against a previous baseline file and returns how many regressed beyond
// threshold. Rows outside the filter (full experiments that run once per
// -benchtime) are skipped: their single-sample ns/op is dominated by noise.
func compareBaseline(path string, current map[string]Result, filter *regexp.Regexp, threshold float64) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("bench: compare: %w", err)
	}
	var prev Baseline
	if err := json.Unmarshal(data, &prev); err != nil {
		return 0, fmt.Errorf("bench: compare: %s: %w", path, err)
	}
	if len(prev.Benchmarks) == 0 {
		return 0, fmt.Errorf("bench: compare: %s has no benchmarks", path)
	}
	names := make([]string, 0, len(current))
	for name := range current {
		if filter.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: compare: no benches match %q in this run\n", filter)
		return 0, nil
	}
	fmt.Printf("\n== compare vs %s (threshold %+.0f%%) ==\n", path, threshold*100)
	regressions := 0
	for _, name := range names {
		base, ok := prev.Benchmarks[name]
		if !ok || base.NsPerOp <= 0 {
			fmt.Printf("%-44s %12.1f ns/op   (new)\n", name, current[name].NsPerOp)
			continue
		}
		cur := current[name].NsPerOp
		delta := cur/base.NsPerOp - 1
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Printf("%-44s %12.1f ns/op  %+7.1f%%%s\n", name, cur, delta*100, mark)
	}
	return regressions, nil
}

// writeHistory aggregates every committed BENCH_*.json (numeric order) into
// one markdown table — benchmark rows, baseline columns, ns/op cells — the
// whole perf trajectory at a glance. Baselines were recorded by different PRs
// on comparable boxes; read the table for trends, not absolute truth.
func writeHistory(w io.Writer) error {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return fmt.Errorf("bench: history: %w", err)
	}
	type col struct {
		label string
		n     int
		bm    map[string]Result
	}
	var cols []col
	for _, path := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		n, err := strconv.Atoi(num)
		if err != nil {
			continue // not part of the numbered trajectory
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("bench: history: %w", err)
		}
		var b Baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Errorf("bench: history: %s: %w", path, err)
		}
		cols = append(cols, col{label: num, n: n, bm: b.Benchmarks})
	}
	if len(cols) == 0 {
		return fmt.Errorf("bench: history: no BENCH_*.json baselines found (run from the repo root)")
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].n < cols[j].n })

	rowSet := make(map[string]bool)
	for _, c := range cols {
		for name := range c.bm {
			rowSet[name] = true
		}
	}
	rows := make([]string, 0, len(rowSet))
	for name := range rowSet {
		rows = append(rows, name)
	}
	sort.Strings(rows)

	fmt.Fprintf(w, "| benchmark (ns/op) |")
	for _, c := range cols {
		fmt.Fprintf(w, " BENCH_%s |", c.label)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range cols {
		fmt.Fprintf(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, name := range rows {
		fmt.Fprintf(w, "| %s |", strings.TrimPrefix(name, "Benchmark"))
		for _, c := range cols {
			if r, ok := c.bm[name]; ok && r.NsPerOp > 0 {
				fmt.Fprintf(w, " %.1f |", r.NsPerOp)
			} else {
				fmt.Fprintf(w, " — |")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// parse extracts benchmark rows from `go test -bench` output. Rows are
// tokenized generically — name, iteration count, then (value, unit) pairs —
// so custom b.ReportMetric units (e.g. "tuples/s") are captured instead of
// breaking a fixed-shape regexp.
func parse(output string) map[string]Result {
	results := make(map[string]Result)
	for _, line := range strings.Split(output, "\n") {
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		name := f[0]
		// Strip the -GOMAXPROCS suffix go test appends to the name.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = v
			}
		}
		results[name] = r
	}
	return results
}
