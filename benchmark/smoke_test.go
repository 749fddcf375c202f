package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The smoke test keeps the harness alive: it builds the benchmark, runs every
// workload at smoke scale in both passes and checks the shape of what is
// printed against BENCHMARK.json. It asserts no timing, so it is as valid
// under -race as without.
//
//	cd benchmark && go test ./...          # dist-churn included
//	cd benchmark && go test -short ./...   # dist-churn skipped

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

// benchBinary builds the benchmark once per test process.
func benchBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "elasticutor-benchmark-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "benchmark")
		args := []string{"build", "-o", builtBin}
		if raceEnabled {
			args = append(args, "-race")
		}
		if out, err := exec.Command("go", append(args, ".")...).CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(filepath.Dir(builtBin))
	}
	os.Exit(code)
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestInSync: BENCHMARK.json is what -manifest prints.
func TestManifestInSync(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var want manifest
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if got := readManifest(t); !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, both passes, and checks that every metric
// BENCHMARK.json lists for the pass is printed exactly once as `name value
// unit` with a finite value, and that the outcome line carries the same set.
func TestSmoke(t *testing.T) {
	bin := benchBinary(t)
	m := readManifest(t)
	for _, wl := range m.Workloads {
		name := wl["name"].(string)
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q is not a valid name", name)
		}
		for _, traced := range []bool{false, true} {
			listed := m.EndToEnd
			if traced {
				listed = m.PerLayer
			}
			label := name + "/end-to-end"
			if traced {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				if name == "dist-churn" && testing.Short() {
					t.Skip("dist-churn spawns agent processes; skipped under -short")
				}
				out := t.TempDir()
				trace := "0"
				if traced {
					trace = "1"
				}
				// The widest deadline: a -race build is several times slower,
				// and this test asserts no timing.
				cmd := exec.Command(bin, "-workload", name, "-scale", "smoke", "-seconds", "2",
					"-seed", "7", "-trace", trace, "-out", out, "-deadline", "170s")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr.String())
				}
				checkOutput(t, string(stdout), listed)
				if traced {
					b, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
					if err != nil {
						t.Fatal(err)
					}
					var spans []span
					if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
						t.Fatalf("trace file: %d spans, err=%v", len(spans), err)
					}
					for _, s := range spans {
						if s.End < s.Start || s.Parent >= len(spans) || s.Workload != name {
							t.Fatalf("malformed span %+v", s)
						}
					}
				}
			})
		}
	}
}

func checkOutput(t *testing.T, stdout string, listed []map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	seen := map[string]int{}
	units := map[string]string{}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "=") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric line %q: value is not a finite number", line)
		}
		seen[f[0]]++
		units[f[0]] = f[2]
	}
	var res outcome
	last := lines[len(lines)-1]
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the outcome object: %v\n%s", err, last)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("outcome: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range listed {
		name, unit := d["name"].(string), d["unit"].(string)
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not a valid name", name)
		}
		if seen[name] != 1 {
			t.Errorf("metric %s printed %d times, want once", name, seen[name])
		}
		if units[name] != unit {
			t.Errorf("metric %s printed with unit %q, want %q", name, units[name], unit)
		}
		mv, ok := res.Metrics[name]
		if !ok || mv.Unit != unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("metric %s in the outcome object: %+v (present=%v)", name, mv, ok)
		}
	}
	if len(res.Metrics) != len(listed) {
		t.Errorf("outcome object has %d metrics, BENCHMARK.json lists %d for this pass", len(res.Metrics), len(listed))
	}
}

// TestDeadline: a workload that cannot finish inside its deadline is killed
// with its agents and reported as failed; the command does not hang.
func TestDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns agent processes; skipped under -short")
	}
	bin := benchBinary(t)
	// 1 ms kills the child before it has spawned anything, 300 ms while its
	// agents are up.
	for _, deadline := range []string{"1ms", "300ms"} {
		cmd := exec.Command(bin, "-workload", "dist-churn", "-scale", "smoke", "-seconds", "2",
			"-deadline", deadline, "-out", t.TempDir())
		done := make(chan struct{})
		var stdout []byte
		var err error
		go func() {
			stdout, err = cmd.Output()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("the command outlived a %s deadline by 30 s", deadline)
		}
		if err == nil {
			t.Fatalf("deadline %s: a killed workload must exit non-zero\n%s", deadline, stdout)
		}
		if !strings.Contains(string(stdout), "# FAILED dist-churn") {
			t.Fatalf("deadline %s: no failure report:\n%s", deadline, stdout)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res outcome
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("deadline %s: last line is not the outcome object: %v", deadline, err)
		}
		if res.Correct || res.Failed < 1 {
			t.Fatalf("deadline %s: outcome of a killed workload: %+v", deadline, res)
		}
		// Agents re-execute the benchmark binary: none may be left running it.
		procs, _ := filepath.Glob("/proc/[0-9]*/exe")
		for _, p := range procs {
			if target, err := os.Readlink(p); err == nil && strings.HasPrefix(target, bin) {
				t.Errorf("deadline %s: process %s still runs %s", deadline, p, target)
			}
		}
	}
}
