package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/sim"
)

// span is one traced interval. Spans of one viewer share its id; Parent
// names the span that caused this one (-1 for a root). Viewer spans are
// in virtual nanoseconds, engine-slice spans in wall nanoseconds since
// the measured phase began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Viewer int    `json:"viewer"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	spans []span
	t0    time.Time
}

// span records one call the benchmark made into the system and returns its
// id for use as a parent.
func (t *tracer) span(viewer int, name string, parent int, start, end sim.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Viewer: viewer, Name: name,
		Clock: "virtual", Start: int64(start), End: int64(end)})
	return id
}

// slice records the wall time one virtual-second engine slice took.
func (t *tracer) slice(w0, w1 time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Viewer: -1, Name: "engine-slice",
		Clock: "wall", Start: int64(w0.Sub(t.t0)), End: int64(w1.Sub(t.t0))})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
