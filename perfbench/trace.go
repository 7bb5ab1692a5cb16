package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"hotleakage/internal/server/api"
)

// span is one timed interval at a layer boundary. Spans of one sweep
// share its ID; Parent is the enclosing span's ID (-1 for a root). N is
// the work the span covers (instructions, operations), so rates are
// measured where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Sweep  string `json:"sweep,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int, sweep string) int {
	if t == nil || !t.on {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Sweep: sweep, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, n int64) {
	if id < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].N = n
}

// endSweep closes a sweep's root span and stamps the sweep ID, known
// only after admission, on it.
func (t *tracer) endSweep(id int, sweep string) {
	if id < 0 {
		return
	}
	t.end(id, 1)
	t.mu.Lock()
	t.spans[id].Sweep = sweep
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, parent int, sweep string, start, end time.Time, n int64) int {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Sweep: sweep,
		Start: start.UnixNano(), End: end.UnixNano(), N: n})
	return len(t.spans) - 1
}

// serverSpans adds the daemon's own view of a sweep, from the status
// timestamps it reports: queued (Created to Started) and running
// (Started to Finished). Daemon and client share the host clock.
func (t *tracer) serverSpans(parent int, sweep string, st api.SweepStatus) {
	if t == nil || !t.on || st.Started == nil || st.Finished == nil {
		return
	}
	t.add("server.queue", parent, sweep, st.Created, *st.Started, 1)
	t.add("server.run", parent, sweep, *st.Started, *st.Finished, int64(st.Total))
}

// timed runs fn inside a span named name and returns fn's error.
func (t *tracer) timed(name string, parent int, n int64, fn func() error) error {
	id := t.begin(name, parent, "")
	err := fn()
	t.end(id, n)
	return err
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// rate is total duration per unit of work over spans, in ns per unit.
func rate(spans []span) float64 {
	var d time.Duration
	var n int64
	for _, s := range spans {
		d += s.dur()
		n += s.N
	}
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// durations returns span durations in the given unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// write saves every span as one JSON line, then one line with the
// counter deltas scraped from the daemons.
func (t *tracer) write(path string, counters map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"counter_deltas": counters}); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
