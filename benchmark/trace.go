package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// functions. Start and End are nanoseconds since the recorder was
// created; Parent is the id of the span that caused this one (0 for a
// root); Req groups the spans of one request.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// maxSpansWritten caps the trace file; the in-memory count is still
// reported in it.
const maxSpansWritten = 50_000

// recorder keeps spans in memory and writes them out once, at exit. A
// nil *recorder records nothing, which is how an untraced run calls the
// same code paths for free.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, Parent: parent, Req: req})
	r.mu.Unlock()
	return id
}

// end closes the span start returned.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// write stores the spans (at most maxSpansWritten of them) with the
// run's provenance at dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string, prov provenance) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.spans
	if len(kept) > maxSpansWritten {
		kept = kept[:maxSpansWritten]
	}
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Workload   string     `json:"workload"`
		Recorded   int        `json:"spans_recorded"`
		Spans      []span     `json:"spans"`
	}{prov, workload, len(r.spans), kept})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
