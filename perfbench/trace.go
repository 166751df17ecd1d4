package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps wall-clock spans in memory for the traced run: one span
// per public call the benchmark makes into a layer, linked to its parent
// and tagged with the job key. Spans are written out once, at exit, as
// Chrome trace_event JSON. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

type span struct {
	id, parent int64
	name, key  string
	start, end time.Duration // since t0
}

// openSpan is a span that has begun; end records it.
type openSpan struct {
	tr         *tracer
	id, parent int64
	name, key  string
	start      time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; parent 0 makes it a root.
func (t *tracer) begin(name, key string, parent int64) openSpan {
	return openSpan{tr: t, id: t.next.Add(1), parent: parent, name: name, key: key, start: time.Now()}
}

// end records the span and returns its duration.
func (s openSpan) end() time.Duration {
	now := time.Now()
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, span{
		id: s.id, parent: s.parent, name: s.name, key: s.key,
		start: s.start.Sub(t.t0), end: now.Sub(t.t0),
	})
	t.mu.Unlock()
	return now.Sub(s.start)
}

// writeChrome writes the spans as Chrome trace_event JSON (open in
// Perfetto or chrome://tracing). Each job key gets its own track so a
// job's nested spans line up; the host fingerprint rides in otherData.
func (t *tracer) writeChrome(path string, host hostInfo) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := tids[s.key]
		if !ok {
			tid = len(tids) + 1
			tids[s.key] = tid
		}
		events = append(events, event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"key": s.key, "id": s.id, "parent": s.parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": host})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// facts accumulates the counts and span times the per-layer metrics are
// computed from. It is safe for concurrent use.
type facts struct {
	mu sync.Mutex
	m  map[string]float64
}

func newFacts() *facts { return &facts{m: map[string]float64{}} }

func (f *facts) add(name string, v float64) {
	f.mu.Lock()
	f.m[name] += v
	f.mu.Unlock()
}

func (f *facts) addDur(name string, d time.Duration) { f.add(name, float64(d)) }

func (f *facts) get(name string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[name]
}

// ratio returns num/den, or 0 when the denominator was never counted.
func (f *facts) ratio(num, den string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m[den] == 0 {
		return 0
	}
	return f.m[num] / f.m[den]
}
