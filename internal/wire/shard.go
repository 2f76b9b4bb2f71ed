package wire

import (
	"fmt"
	"math"

	"allnn/internal/curve"
)

// The shard map describes a dataset partitioned across annserve
// backends by contiguous space-filling-curve key ranges. It is one
// record with one encoding, its JSON: cmd/anngen writes it to disk,
// annrouter loads it (router.MapFile is this type) and serves it over
// OpShardMap, and ann/client decodes it back into this type.

// ShardInfo is one shard of a partitioned dataset: the backend that
// owns it, the half of the curve-key space it covers, the contiguous
// global-id range of its points, and its tight boundary MBR (the rect
// routed queries prune against).
type ShardInfo struct {
	// Name is the index name mounted on the backend's catalog.
	Name string `json:"name"`
	// Addr is the backend's host:port.
	Addr string `json:"addr"`
	// LoKey and HiKey delimit the shard's curve-key range, inclusive on
	// both ends; consecutive shards' ranges are adjacent, tiling the
	// whole uint64 key space.
	LoKey uint64 `json:"lo_key"`
	HiKey uint64 `json:"hi_key"`
	// IDBase is the global object id of the shard's first point; the
	// shard's points carry local ids 0..Count-1, so global id =
	// IDBase + local id. Global id ranges of consecutive shards are
	// contiguous, which is what lets the router concatenate per-shard
	// answers into one globally id-ordered answer.
	IDBase uint64 `json:"id_base"`
	Count  uint64 `json:"count"`
	// MBRLo and MBRHi are the corners of the shard's boundary MBR.
	MBRLo []float64 `json:"mbr_lo"`
	MBRHi []float64 `json:"mbr_hi"`
}

// ShardMap is the routed topology of one logical dataset.
type ShardMap struct {
	// Name is the logical dataset name the router serves it under.
	Name string `json:"name"`
	// Curve is the partitioning curve ("zorder" or "hilbert").
	Curve string `json:"curve"`
	// BoundsLo and BoundsHi are the curve encoder's bounds — the
	// bounding rect of the dataset at partitioning time. Query points
	// are mapped to curve keys against these bounds.
	BoundsLo []float64   `json:"bounds_lo"`
	BoundsHi []float64   `json:"bounds_hi"`
	Shards   []ShardInfo `json:"shards"`
}

// Validate checks the structural invariants routing depends on: a known
// curve, matching dimensionalities, and shard key ranges that are
// adjacent, ascending and tile the whole key space, with contiguous
// global-id ranges in shard order.
func (m *ShardMap) Validate() error {
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

// ShardMapReq (OpShardMap) asks a router for the topology of a routed
// dataset.
type ShardMapReq struct {
	Name string
}

func (m *ShardMapReq) encode(e *Encoder) { e.String(m.Name) }
func (m *ShardMapReq) decode(d *Decoder) { m.Name = d.String("shard map name") }

// ShardMapReply answers OpShardMap with the JSON encoding of the
// dataset's ShardMap, the record the map file holds; the client decodes
// and validates it.
type ShardMapReply struct {
	Map []byte
}

func (m *ShardMapReply) encode(e *Encoder) { e.String(string(m.Map)) }
func (m *ShardMapReply) decode(d *Decoder) { m.Map = []byte(d.String("shard map")) }
