// Package router implements annrouter: a scatter-gather front end that
// serves the internal/wire protocol over a dataset space-partitioned
// across annserve backends. Each backend owns one shard — a contiguous
// space-filling-curve key range of the dataset (internal/curve) — and
// the router holds the shard map: per shard, the backend address, the
// key range, the contiguous global-id range, and the tight boundary MBR
// of the shard's points.
//
// Queries scatter only to the shards whose boundary MBR can contribute:
// point kNN runs two-phase (the shard owning the query point's curve
// key first, then only the shards whose MINDIST to the query beats the
// gathered k-th distance, with the paper's NXNDIST bound seeding the
// radius before any shard answers), box queries go to intersecting MBRs
// only, and distributed self-joins combine per-shard self-joins with a
// boundary fix-up pass. Because shards carry contiguous global-id
// ranges in curve order, gathered streams concatenate into one globally
// id-ordered stream with no sort — byte-identical to a single-node run
// over the curve-ordered unpartitioned dataset.
//
// A routed answer is exact or an error: a request that needs a shard
// whose backend is down fails fast with SHARD_UNAVAILABLE, and every
// other request is answered as the single node would.
package router

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"allnn/internal/curve"
	"allnn/internal/geom"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// MapShard is one shard entry of the on-disk shard map (the JSON twin
// of wire.ShardInfo).
type MapShard struct {
	// Name is the index name mounted on the backend's catalog.
	Name string `json:"name"`
	// Addr is the backend's host:port.
	Addr string `json:"addr"`
	// LoKey and HiKey delimit the shard's curve-key range (inclusive on
	// both ends; consecutive shards tile the whole uint64 key space).
	LoKey uint64 `json:"lo_key"`
	HiKey uint64 `json:"hi_key"`
	// IDBase is the global id of the shard's first point: global id =
	// IDBase + local id on the backend.
	IDBase uint64 `json:"id_base"`
	Count  uint64 `json:"count"`
	// MBRLo and MBRHi are the corners of the shard's boundary MBR.
	MBRLo []float64 `json:"mbr_lo"`
	MBRHi []float64 `json:"mbr_hi"`
}

// MapFile is the on-disk shard map: one logical dataset cut into
// curve-range shards. cmd/anngen writes it next to the per-shard point
// files; cmd/annrouter loads it at startup.
type MapFile struct {
	// Name is the logical dataset name the router serves.
	Name string `json:"name"`
	// Curve is the partitioning curve ("zorder" or "hilbert").
	Curve string `json:"curve"`
	// BoundsLo and BoundsHi are the curve encoder's bounds (the dataset
	// bounding rect at partitioning time); query points map to curve
	// keys against them.
	BoundsLo []float64  `json:"bounds_lo"`
	BoundsHi []float64  `json:"bounds_hi"`
	Shards   []MapShard `json:"shards"`
}

// LoadMapFile reads and validates a shard map.
func LoadMapFile(path string) (*MapFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("router: read shard map: %w", err)
	}
	var m MapFile
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("router: parse shard map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("router: shard map %s: %w", path, err)
	}
	return &m, nil
}

// Save writes the map as indented JSON.
func (m *MapFile) Save(path string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Validate checks the structural invariants routing depends on: a known
// curve, matching dimensionalities, and shard key ranges that are
// adjacent, ascending and tile the whole key space, with contiguous
// global-id ranges in shard order.
func (m *MapFile) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("dataset name is empty")
	}
	if _, err := curve.ParseKind(m.Curve); err != nil {
		return err
	}
	dim := len(m.BoundsLo)
	if dim == 0 || len(m.BoundsHi) != dim {
		return fmt.Errorf("bounds dims (%d, %d) invalid", len(m.BoundsLo), len(m.BoundsHi))
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("no shards")
	}
	if m.Shards[0].LoKey != 0 {
		return fmt.Errorf("first shard starts at key %d, want 0", m.Shards[0].LoKey)
	}
	if last := m.Shards[len(m.Shards)-1]; last.HiKey != math.MaxUint64 {
		return fmt.Errorf("last shard ends at key %d, want MaxUint64", last.HiKey)
	}
	var idNext uint64
	for i, s := range m.Shards {
		if s.Name == "" || s.Addr == "" {
			return fmt.Errorf("shard %d: empty name or addr", i)
		}
		if s.LoKey > s.HiKey {
			return fmt.Errorf("shard %d: inverted key range [%d, %d]", i, s.LoKey, s.HiKey)
		}
		if i > 0 && s.LoKey != m.Shards[i-1].HiKey+1 {
			return fmt.Errorf("shard %d: range starts at %d, previous ends at %d (must be adjacent)", i, s.LoKey, m.Shards[i-1].HiKey)
		}
		if s.IDBase != idNext {
			return fmt.Errorf("shard %d: id base %d, want %d (global ids must be contiguous in shard order)", i, s.IDBase, idNext)
		}
		idNext += s.Count
		if len(s.MBRLo) != dim || len(s.MBRHi) != dim {
			return fmt.Errorf("shard %d: MBR dims (%d, %d) do not match bounds dim %d", i, len(s.MBRLo), len(s.MBRHi), dim)
		}
	}
	return nil
}

// ToWire converts the map to its wire form (served over OpShardMap).
func (m *MapFile) ToWire() wire.ShardMap {
	kind, _ := curve.ParseKind(m.Curve)
	wm := wire.ShardMap{
		Name:     m.Name,
		Curve:    uint8(kind),
		BoundsLo: m.BoundsLo,
		BoundsHi: m.BoundsHi,
		Shards:   make([]wire.ShardInfo, len(m.Shards)),
	}
	for i, s := range m.Shards {
		wm.Shards[i] = wire.ShardInfo{
			Name: s.Name, Addr: s.Addr,
			LoKey: s.LoKey, HiKey: s.HiKey,
			IDBase: s.IDBase, Count: s.Count,
			MBRLo: s.MBRLo, MBRHi: s.MBRHi,
		}
	}
	return wm
}

// MapFromPartitioning builds the shard map for a partitioning: shard i
// is named "<name>-<i>", served at addrs[i] (addrs may be nil — fill
// Addr in before serving). Point counts and id bases follow the
// partitioning's curve order.
func MapFromPartitioning(name string, p *curve.Partitioning, addrs []string) *MapFile {
	m := &MapFile{
		Name:     name,
		Curve:    p.Kind.String(),
		BoundsLo: p.Bounds.Lo,
		BoundsHi: p.Bounds.Hi,
	}
	var idBase uint64
	for i, s := range p.Shards {
		ms := MapShard{
			Name:   fmt.Sprintf("%s-%d", name, i),
			LoKey:  s.LoKey,
			HiKey:  s.HiKey,
			IDBase: idBase,
			Count:  uint64(len(s.Points)),
			MBRLo:  s.MBR.Lo,
			MBRHi:  s.MBR.Hi,
		}
		if i < len(addrs) {
			ms.Addr = addrs[i]
		}
		idBase += ms.Count
		m.Shards = append(m.Shards, ms)
	}
	return m
}

// dataset is the runtime form of one routed dataset: parsed rects, the
// curve encoder for key routing, and the backends.
type dataset struct {
	name    string
	curve   curve.Kind
	bounds  geom.Rect
	dim     int
	enc     curve.Encoder
	shards  []*shard
	wireMap wire.ShardMap
}

// shard pairs one map entry with its backend connection state.
type shard struct {
	index   int    // position in dataset.shards
	name    string // index name on the backend
	idBase  uint64
	count   uint64
	loKey   uint64
	hiKey   uint64
	mbr     geom.Rect
	backend *backend
	// latency is the shard's router.shard.<name>.latency_ns histogram,
	// nil without a metrics registry.
	latency *obs.Histogram
}

// newDataset parses a validated map into its runtime form, one backend
// (connection pool and breaker) per shard, two shards on the same
// address included.
func newDataset(m *MapFile, cfg Config) (*dataset, error) {
	kind, err := curve.ParseKind(m.Curve)
	if err != nil {
		return nil, err
	}
	bounds := geom.Rect{Lo: m.BoundsLo, Hi: m.BoundsHi}
	enc, err := curve.NewEncoder(kind, bounds)
	if err != nil {
		return nil, err
	}
	ds := &dataset{
		name:    m.Name,
		curve:   kind,
		bounds:  bounds,
		dim:     bounds.Dim(),
		enc:     enc,
		wireMap: m.ToWire(),
	}
	for i, s := range m.Shards {
		ds.shards = append(ds.shards, &shard{
			index:   i,
			name:    s.Name,
			idBase:  s.IDBase,
			count:   s.Count,
			loKey:   s.LoKey,
			hiKey:   s.HiKey,
			mbr:     geom.Rect{Lo: s.MBRLo, Hi: s.MBRHi},
			backend: newBackend(s.Name, s.Addr, cfg),
			latency: cfg.Metrics.Histogram("router.shard."+s.Name+".latency_ns", obs.LatencyBuckets()),
		})
	}
	return ds, nil
}

// locate returns the index of the shard owning q's curve key. The
// encoder clamps points outside the partitioning bounds to the nearest
// cell, so every query point routes to exactly one owner.
func (ds *dataset) locate(q geom.Point) int {
	key := ds.enc.Value(q)
	return curve.LocateKey(key, len(ds.shards), func(i int) uint64 { return ds.shards[i].loKey })
}

// points returns the dataset's total point count.
func (ds *dataset) points() uint64 {
	var n uint64
	for _, s := range ds.shards {
		n += s.count
	}
	return n
}
