package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans of one job (or one ladder) share a
// trace id; parent is the id of the span that caused this one, 0 for a
// root. Times are microseconds since the trace began.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	TraceID string  `json:"trace_id"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Bytes   int64   `json:"bytes"`
}

// tracer keeps spans in memory until the run ends. The spans are
// recorded by the harness around its calls into each layer; spans inside
// the program are a later change.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, traceID, name, layer string, start, end time.Time, bytes int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, TraceID: traceID, Name: name, Layer: layer,
		StartUS: us(start.Sub(t.epoch)), EndUS: us(end.Sub(t.epoch)), Bytes: bytes,
	})
	return id
}

var phaseNames = [4]string{"upload", "submit", "run", "collect"}

// addJob records a job's root span and its four phase spans.
func (t *tracer) addJob(traceID string, js jobSample) {
	end := js.start.Add(js.turnaround())
	root := t.add(0, traceID, "job", "client", js.start, end, js.payload)
	at := js.start
	for i, d := range js.phases {
		t.add(root, traceID, phaseNames[i], "gate", at, at.Add(d), 0)
		at = at.Add(d)
	}
}

func (t *tracer) write(dir, workload string, env fingerprint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Env   fingerprint `json:"env"`
		Spans []span      `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
