package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the simulator.
// Parent is the index of the enclosing span, or -1 at the top level.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced runs pay only a nil check at each layer boundary. Spans may be
// recorded from several goroutines (the distributed workers).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns its id.
func (t *tracer) do(name string, parent int, f func()) int {
	id := t.begin(name, parent)
	f()
	t.end(id)
	return id
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
