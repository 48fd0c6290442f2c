package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one update share its key: the
// channel and the version (0 for calls that concern no version, such as
// a Subscribe).
type span struct {
	Name    string `json:"name"`
	Channel string `json:"ch"`
	Version uint64 `json:"v,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced run) records nothing; on an enabled one, recording can be
// switched off for a stretch so one run can compare the cost of tracing
// against not tracing on the same cluster.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// span records one call; start and end come from the caller's clock reads.
func (t *tracer) span(name, ch string, v uint64, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Name: name, Channel: ch, Version: v, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "corona-load: wrote %d spans to %s\n", n, path)
	return nil
}
