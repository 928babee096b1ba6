package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span (-1 for a request's root).
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory around calls into the program's layers,
// from one goroutine. A disabled tracer runs the calls and records
// nothing, which is how the untraced replay is timed.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int // stack of open span indexes
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// request starts a new request id; later spans belong to it.
func (t *tracer) request(id int) { t.req = id }

// do runs f inside a span named name and returns f's duration.
func (t *tracer) do(name string, f func()) time.Duration {
	if !t.on {
		start := time.Now()
		f()
		return time.Since(start)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: time.Since(t.t0)})
	t.open = append(t.open, i)
	f()
	t.spans[i].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	return t.spans[i].dur()
}

// layerTime is one span name's totals.
type layerTime struct {
	Count int
	Self  time.Duration // span durations minus the time child spans cover
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus its children's; children of one span never overlap, since one
// goroutine records them.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Self += s.dur() - child[i]
	}
	return out
}

// write stores the spans as JSON lines.
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
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
