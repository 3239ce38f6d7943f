package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Spans stay in memory
// until the run ends; per-layer metrics are computed from them.
type span struct {
	name       string
	start, end time.Time
	parent     int // id of the enclosing span, 0 for none
	job        int // job the span belongs to
	lane       int // goroutine lane, so concurrent spans do not overlap in a viewer
	records    int64
	bytes      int64
}

// tracer records spans around the benchmark's calls into the program. Its
// methods are safe for concurrent use; span ids start at 1.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	job   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newJob starts a new job id for the spans that follow.
func (t *tracer) newJob() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.job++
	return t.job
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job, lane int) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, job: job, lane: lane})
	return len(t.spans)
}

// end closes span id, attributing records and bytes of work to it.
func (t *tracer) end(id int, records, bytes int64) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end, s.records, s.bytes = now, records, bytes
	return now.Sub(s.start)
}

// named returns a copy of every closed span called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of spans named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.end.Sub(s.start).Seconds())
	}
	return out
}

// totals sums the duration, records and bytes of spans named name.
func (t *tracer) totals(name string) (secs float64, records, bytes int64) {
	for _, s := range t.named(name) {
		secs += s.end.Sub(s.start).Seconds()
		records += s.records
		bytes += s.bytes
	}
	return secs, records, bytes
}

// chromeEvent is one complete ("X") event of the Chrome trace-event JSON
// array, the format mrbench -trace writes for the simulated engines.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TsUs float64        `json:"ts"`
	DuUs float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every closed span to path as Chrome trace JSON: one
// process per job, one thread per lane, parent and work counts as args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		args := map[string]any{"id": i + 1, "job": s.job}
		if s.parent > 0 {
			args["parent"] = s.parent
		}
		if s.records > 0 {
			args["records"] = s.records
		}
		if s.bytes > 0 {
			args["bytes"] = s.bytes
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TsUs: float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			DuUs: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID:  s.job, TID: s.lane, Args: args,
		})
	}
	t.mu.Unlock()
	data, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf is the package part of a span name ("kvbuf.SortBuffer.Spill" ->
// "kvbuf").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
