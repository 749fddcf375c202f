package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// enclosing span (-1 at the root). A layer's self time is its span minus the
// spans that name it as parent.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Run      string `json:"run"`
}

// tracer records spans in memory and writes them out when the workload
// ends. A nil tracer records nothing, which is how the end-to-end pass runs.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its index; pass it to end, and as parent to
// the spans of the calls made inside it.
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.t0)), End: -1,
		Parent: parent, Workload: t.workload, Run: run,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes a span at a time observed elsewhere (an event callback).
func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// write stores the spans as outDir/trace-<workload>.json.
func (t *tracer) write(outDir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+t.workload+".json"), append(b, '\n'), 0o644)
}
