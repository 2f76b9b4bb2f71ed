// Package obs is the unified observability layer of the ANN stack: a
// concurrency-safe metrics Registry (atomic counters, gauges and
// fixed-bucket histograms, exported as a JSON snapshot and over HTTP), a
// lightweight query Tracer emitting Chrome trace-event JSON loadable in
// Perfetto, and profiling hooks shared by the cmd tools.
//
// Everything is stdlib-only and nil-safe: a nil *Registry, *Tracer,
// *Counter, *Gauge or *Histogram is a valid no-op, so instrumented code
// pays one nil check when observability is disabled — the engine's
// 0 allocs/op hot paths hold with and without it.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (a point-in-time level, such
// as cache residency). The zero value is ready to use; a nil *Gauge is a
// no-op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the value to v if v is larger: a high-water mark.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for cur := g.v.Load(); v > cur && !g.v.CompareAndSwap(cur, v); cur = g.v.Load() {
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over float64 observations
// (latencies in nanoseconds, sizes in bytes, ...). Buckets are cumulative
// upper bounds; observations above the last bound land in an implicit
// overflow bucket. All methods are safe for concurrent use; a nil
// *Histogram is a no-op.
type Histogram struct {
	bounds []float64 // ascending upper bounds (finite)
	counts []atomic.Uint64
	over   atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.over.Add(1)
}

// HistogramBucket is one (upper bound, count) pair of a snapshot. Counts
// are per bucket, not cumulative.
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramSnapshot is the JSON-able state of a Histogram. Overflow holds
// observations above the last bucket bound (kept out of Buckets so the
// snapshot never contains +Inf, which JSON cannot encode). P50/P95/P99
// are bucket-interpolated quantile estimates (see Quantile).
type HistogramSnapshot struct {
	Count    uint64            `json:"count"`
	Sum      float64           `json:"sum"`
	Buckets  []HistogramBucket `json:"buckets"`
	Overflow uint64            `json:"overflow"`
	P50      float64           `json:"p50"`
	P95      float64           `json:"p95"`
	P99      float64           `json:"p99"`
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the bucket holding the target rank, taking the
// previous bucket's bound (0 for the first) as the bucket's lower edge.
// An empty snapshot reports 0. A rank landing in the overflow bucket
// reports the last finite bound — the estimator cannot see beyond its
// buckets, and a conservative finite answer beats fabricating one.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum, lower := 0.0, 0.0
	for _, b := range s.Buckets {
		c := float64(b.Count)
		if c > 0 && cum+c >= rank {
			frac := (rank - cum) / c
			return lower + frac*(b.UpperBound-lower)
		}
		cum += c
		lower = b.UpperBound
	}
	return lower
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		Sum:      math.Float64frombits(h.sum.Load()),
		Overflow: h.over.Load(),
		Buckets:  make([]HistogramBucket, len(h.bounds)),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = HistogramBucket{UpperBound: b, Count: h.counts[i].Load()}
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given factor — the helper behind the default latency and
// size bucket layouts.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default layout for durations in nanoseconds:
// 1µs .. ~16s in powers of 4.
func LatencyBuckets() []float64 { return ExpBuckets(1e3, 4, 13) }

// SizeBuckets is the default layout for sizes in bytes: 64 B .. 1 GiB in
// powers of 4.
func SizeBuckets() []float64 { return ExpBuckets(64, 4, 13) }

// Registry is a named family of metrics. Metric accessors are
// get-or-create and safe for concurrent use; reads during concurrent
// updates see a consistent point-in-time snapshot per metric (not across
// metrics). A nil *Registry is valid: accessors return nil metrics whose
// methods are no-ops, so call sites need no guards.
//
// Naming convention: "family.metric" in snake_case — e.g.
// "engine.distance_calcs", "pool.misses", "cache.bytes". The catalogue of
// families used by this repo is documented in DESIGN.md §10.
type Registry struct {
	mu           sync.RWMutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	hists        map[string]*Histogram
	counterFuncs map[string]func() uint64
	gaugeFuncs   map[string]func() int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     map[string]*Counter{},
		gauges:       map[string]*Gauge{},
		hists:        map[string]*Histogram{},
		counterFuncs: map[string]func() uint64{},
		gaugeFuncs:   map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if needed (the bounds of an existing histogram are kept).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds))
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers (or replaces) a callback-backed counter: the
// snapshot calls fn for the current value. Used to wire long-lived
// components (buffer pools, node caches) whose own counters stay
// authoritative — re-registering is idempotent, so attach-on-every-run
// wiring is safe.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counterFuncs[name] = fn
	r.mu.Unlock()
}

// GaugeFunc registers (or replaces) a callback-backed gauge.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Snapshot is a point-in-time JSON-able view of every metric.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Callback-backed metrics are evaluated
// outside the registry lock (their components take their own locks).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	cfs := make(map[string]func() uint64, len(r.counterFuncs))
	for name, fn := range r.counterFuncs {
		cfs[name] = fn
	}
	gfs := make(map[string]func() int64, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		gfs[name] = fn
	}
	r.mu.RUnlock()
	for name, fn := range cfs {
		s.Counters[name] = fn()
	}
	for name, fn := range gfs {
		s.Gauges[name] = fn()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP implements http.Handler, serving the JSON snapshot (the
// expvar-style /metrics endpoint behind the cmd tools' -pprof-addr flag).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = r.WriteJSON(w)
}
