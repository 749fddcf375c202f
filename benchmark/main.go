// Command benchmark is the repository's benchmark: four workloads over the
// simulator, the runtime backend and the distributed backend, end-to-end
// metrics with regression bounds, and a traced pass with a per-layer ledger.
// BENCHMARK.json at the repository root is its contract; README.md explains
// every workload and metric.
//
//	bash benchmark/run.sh --workload rt-ladder --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                       # all four workloads, end to end
//	bash benchmark/run.sh -trace 1              # traced pass and layer probes
//	bash benchmark/run.sh -repeat 5 -check      # repeatability self-check
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	elasticutor "repro"
)

func main() {
	// Distributed runs re-execute this binary as their per-node agents.
	elasticutor.MainIfAgent()

	var p params
	flag.StringVar(&p.workload, "workload", "", "workload to run (default: all four)")
	flag.Uint64Var(&p.seed, "seed", 1, "seed of every sampler in the harness")
	flag.Float64Var(&p.seconds, "seconds", nominalSeconds, "measured span each workload is dimensioned for")
	trace := flag.Int("trace", 0, "1 = traced pass: spans, recorder, layer probes, per-layer metrics")
	scale := flag.String("scale", "full", "full, or smoke (tiny dimensions, for the smoke test)")
	flag.StringVar(&p.outDir, "out", defaultOutDir(), "directory for trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "run every selected workload this many times, seed+i on run i")
	check := flag.Bool("check", false, "with -repeat: print median/min/max and spread per end-to-end metric against its bound")
	deadline := flag.Duration("deadline", 0, "hard wall deadline per workload (default 3x nominal)")
	child := flag.Bool("child", false, "internal: run one workload in this process")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	p.traced = *trace != 0
	p.smoke = *scale == "smoke"
	if flag.NArg() > 0 || p.seconds <= 0 || (*scale != "full" && *scale != "smoke") {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *child:
		os.Exit(childMain(p))
	default:
		os.Exit(parentMain(p, *repeat, *check, *deadline))
	}
}

// defaultOutDir keeps traces inside the benchmark's directory whether the
// command runs from the repository root or from benchmark/ itself.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// prSetChildSubreaper is PR_SET_CHILD_SUBREAPER from <linux/prctl.h>.
const prSetChildSubreaper = 36

var runners = map[string]func(params, *results, *tracer){
	"sim-shuffle": runSimShuffle,
	"sim-churn":   runSimChurn,
	"rt-ladder":   runRtLadder,
	"dist-churn":  runDistChurn,
}

// childMain runs one workload in a fresh process: fresh heap, GOMAXPROCS
// pinned, killable by the parent when it overruns its deadline.
func childMain(p params) int {
	run, ok := runners[p.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", p.workload)
		return 2
	}
	// One generator, one sampler and the program's own workers: two
	// processors keep the numbers comparable between small and large hosts.
	runtime.GOMAXPROCS(2)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "== %s seed=%d seconds=%g trace=%v ==\n", p.workload, p.seed, p.seconds, p.traced)
	printHostFacts(out)
	out.Flush()

	r := newResults()
	var tr *tracer
	if p.traced {
		tr = newTracer(p.workload)
	}
	guarded(r, p.workload, func() error { run(p, r, tr); return nil })
	if err := tr.write(p.outDir); err != nil {
		r.issuef("write trace: %v", err)
	}
	res := r.report(out, p.traced)
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// parentMain re-executes this binary once per workload and run, enforces the
// deadline, and in -check mode judges the spread of what came back.
func parentMain(p params, repeat int, check bool, deadline time.Duration) int {
	names := []string{p.workload}
	if p.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := runners[p.workload]; !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", p.workload)
		return 2
	}
	if deadline <= 0 {
		// Three times what a healthy run takes: the measured span plus
		// set-up, shutdown overruns and (traced) probes.
		deadline = time.Duration(3 * (p.seconds + 15) * float64(time.Second))
		if deadline > 170*time.Second {
			deadline = 170 * time.Second // the driver allows a run 180 s
		}
	}
	// Orphaned grandchildren (dist agents of a killed child) reparent to this
	// process instead of init, so reapGroup can wait for them.
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: prctl(PR_SET_CHILD_SUBREAPER):", errno)
	}
	if check {
		if load, busy := loadavg1(), float64(runtime.NumCPU())/2; load > busy {
			fmt.Printf("# WARNING 1-min loadavg %.2f > nproc/2 = %.1f: spreads below may be the host's, not the program's\n", load, busy)
		}
	}
	exit := 0
	collected := map[string][]outcome{}
	for i := 0; i < repeat; i++ {
		for _, name := range names {
			q := p
			q.workload, q.seed = name, p.seed+uint64(i)
			res, ok := runChild(q, deadline)
			if !ok || !res.Correct {
				exit = 1
			}
			collected[name] = append(collected[name], res)
		}
	}
	if check {
		if !checkSpread(os.Stdout, names, collected, p.traced) {
			fmt.Println("# WARNING some spreads exceed their bounds (see above)")
		}
	}
	return exit
}

// runChild runs one workload in a child process group and returns its
// outcome. A child that outlives the deadline is killed with its agents and
// reported as a failed workload; ok is false when no result came back.
func runChild(p params, deadline time.Duration) (outcome, bool) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return failedOutcome(p, "cannot find own executable"), false
	}
	scale := "full"
	if p.smoke {
		scale = "smoke"
	}
	trace := "0"
	if p.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", p.workload,
		"-seed", strconv.FormatUint(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-trace", trace, "-scale", scale, "-out", p.outDir)
	cmd.Stderr = os.Stderr
	// Own process group: the child's agents die with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return failedOutcome(p, err.Error()), false
	}
	if err := cmd.Start(); err != nil {
		return failedOutcome(p, err.Error()), false
	}
	pgid := cmd.Process.Pid
	timedOut := make(chan struct{})
	timer := time.AfterFunc(deadline, func() {
		close(timedOut)
		syscall.Kill(-pgid, syscall.SIGKILL)
	})

	// Relay the child's lines; its last JSON line is the outcome.
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if strings.HasPrefix(line, "{") {
			last = line
		}
	}
	waitErr := cmd.Wait()
	timer.Stop()
	reapGroup(pgid)

	select {
	case <-timedOut:
		return failedOutcome(p, fmt.Sprintf("killed at its %v deadline", deadline)), false
	default:
	}
	var res outcome
	if err := json.Unmarshal([]byte(last), &res); err != nil || last == "" {
		return failedOutcome(p, fmt.Sprintf("no result (%v)", waitErr)), false
	}
	return res, true
}

// reapGroup waits until every process the child left behind has ended.
// Agents normally exit on the shutdown message their run sent; as this
// process is their subreaper (see parentMain) they are reaped here, and
// whatever outlives the grace is killed first.
func reapGroup(pgid int) {
	grace := time.Now().Add(3 * time.Second)
	killed := false
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		switch {
		case err == syscall.EINTR || pid > 0:
			continue
		case err != nil:
			return // ECHILD: nothing left
		}
		if !killed && time.Now().After(grace) {
			syscall.Kill(-pgid, syscall.SIGKILL)
			killed = true
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failedOutcome prints a workload that produced no result as failed: every
// metric of the pass by name, one operation attempted, one failed.
func failedOutcome(p params, why string) outcome {
	fmt.Printf("# FAILED %s: %s\n", p.workload, why)
	r := newResults()
	r.issuef("%s: %s", p.workload, why)
	res := r.report(io.Discard, p.traced)
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
	return res
}
