//go:build race

package main

// raceEnabled makes the smoke test build the benchmark with -race too, so a
// `go test -race` run checks the harness's own goroutines.
const raceEnabled = true
