//go:build race

package runtime

// raceEnabled lets allocation guards skip under the race detector, whose
// instrumentation allocates on its own account.
const raceEnabled = true
