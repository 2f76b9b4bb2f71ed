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
	"os"

	"allnn/internal/curve"
	"allnn/internal/geom"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// MapFile is the on-disk shard map: one logical dataset cut into
// curve-range shards. cmd/anngen writes it next to the per-shard point
// files; cmd/annrouter loads it at startup and serves it over
// OpShardMap. It is wire.ShardMap, the one declaration of the record.
type MapFile = wire.ShardMap

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

// SaveMapFile writes m to path as indented JSON.
func SaveMapFile(path string, m *MapFile) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
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
		ms := wire.ShardInfo{
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

// dataset is the runtime form of one routed dataset: the map it was
// built from (served over OpShardMap), the curve encoder for key
// routing, and the backends.
type dataset struct {
	m      *MapFile
	dim    int
	enc    curve.Encoder
	shards []*shard
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
	ds := &dataset{m: m, dim: bounds.Dim(), enc: enc}
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
