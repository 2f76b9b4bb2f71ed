package ann

import (
	"io"
	"net/http"

	"allnn/internal/core"
	"allnn/internal/obs"
)

// QueryReport is the unified per-query observability record produced via
// QueryConfig.OnReport: the engine's work counters, the buffer-pool and
// decoded-node-cache activity attributable to the run, and the
// wall-time breakdown across the paper's Expand/Filter/Gather stages.
// It marshals to stable JSON (see EXPERIMENTS.md for reproducing the
// paper's counter tables from it).
type QueryReport = core.QueryReport

// Stats, Timings and SchedStats name the nested sections of QueryReport
// so report consumers (the remote client included) can build or match
// them without importing internal packages.
type (
	Stats      = core.Stats
	Timings    = core.Timings
	SchedStats = core.SchedStats
)

// MetricsRegistry accumulates query metrics across runs: counters,
// gauges and histograms under stable "family.metric" names (DESIGN.md
// §10 catalogues them). One registry may be shared by any number of
// concurrent queries. The zero value is not usable; create one with
// NewMetricsRegistry. A nil *MetricsRegistry disables metrics.
type MetricsRegistry struct {
	reg *obs.Registry
}

// NewMetricsRegistry creates an empty registry.
func NewMetricsRegistry() *MetricsRegistry {
	return &MetricsRegistry{reg: obs.NewRegistry()}
}

// registry returns the wrapped registry (nil for a nil wrapper), which
// is what the engine consumes.
func (m *MetricsRegistry) registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// WriteJSON writes a point-in-time snapshot of every metric as indented
// JSON.
func (m *MetricsRegistry) WriteJSON(w io.Writer) error {
	return m.registry().WriteJSON(w)
}

// Handler returns an http.Handler serving the JSON snapshot — the
// /metrics endpoint behind annquery's -pprof-addr flag.
func (m *MetricsRegistry) Handler() http.Handler { return m.registry() }
