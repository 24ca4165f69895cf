package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// from this package, around calls into the repository's public functions;
// what happens between those boundaries is attributed by the CPU profiler
// (profile.go).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`    // shared by every span of one run or job
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil tracer records nothing,
// which is how the untraced runs that yield the end-to-end numbers run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id for use as a parent. A span whose
// end is not known yet is added with a zero duration and closed later.
func (t *tracer) add(run, name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// close sets the end of a span that add opened with a zero duration.
func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// write dumps the run's trace as one JSON file: the spans, per span name
// the self time (each span's duration minus the part its children cover),
// and the profiler's nanoseconds by layer.
func (t *tracer) write(path, workload string, cpu map[string]float64) error {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - children[s.ID]
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		SelfNs   map[string]int64   `json:"span_self_ns"`
		CPUNs    map[string]float64 `json:"profiled_cpu_ns"`
		Spans    []span             `json:"spans"`
	}{workload, self, cpu, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
