package wire

// Shard-routing frames (protocol version 2). The shard map describes a
// dataset partitioned across annserve backends by contiguous
// space-filling-curve key ranges; the router serves it over OpShardMap
// so clients and operators can inspect the topology, and loads it from
// the same encoding's JSON twin on disk (internal/router).

// ShardInfo is one shard of a partitioned dataset: the backend that
// owns it, the half of the curve-key space it covers, the contiguous
// global-id range of its points, and its tight boundary MBR (the rect
// routed queries prune against).
type ShardInfo struct {
	// Name is the index name mounted on the backend's catalog.
	Name string
	// Addr is the backend's host:port.
	Addr string
	// LoKey and HiKey delimit the shard's curve-key range, inclusive on
	// both ends; consecutive shards' ranges are adjacent, tiling the
	// whole uint64 key space.
	LoKey uint64
	HiKey uint64
	// IDBase is the global object id of the shard's first point; the
	// shard's points carry local ids 0..Count-1, so global id =
	// IDBase + local id. Global id ranges of consecutive shards are
	// contiguous, which is what lets the router merge per-shard streams
	// into one globally id-ordered stream without a sort.
	IDBase uint64
	Count  uint64
	// MBRLo and MBRHi are the corners of the shard's boundary MBR.
	MBRLo []float64
	MBRHi []float64
}

func (s *ShardInfo) encode(e *Encoder) {
	e.String(s.Name)
	e.String(s.Addr)
	e.U64(s.LoKey)
	e.U64(s.HiKey)
	e.U64(s.IDBase)
	e.U64(s.Count)
	e.F64s(s.MBRLo)
	e.F64s(s.MBRHi)
}

func (s *ShardInfo) decode(d *Decoder) {
	s.Name = d.String("shard name")
	s.Addr = d.String("shard addr")
	s.LoKey = d.U64("shard lo key")
	s.HiKey = d.U64("shard hi key")
	s.IDBase = d.U64("shard id base")
	s.Count = d.U64("shard count")
	s.MBRLo = d.F64s("shard mbr lo")
	s.MBRHi = d.F64s("shard mbr hi")
}

// minShardInfoBytes is the smallest encoding of a ShardInfo (empty
// strings and MBR corners), used to validate counts before allocating.
const minShardInfoBytes = 1 + 1 + 8*4 + 1 + 1

// ShardMap is the routed topology of one logical dataset.
type ShardMap struct {
	// Name is the logical dataset name the router serves it under.
	Name string
	// Curve is the partitioning curve (curve.Kind: 1 zorder, 2 hilbert).
	Curve uint8
	// BoundsLo and BoundsHi are the curve encoder's bounds — the
	// bounding rect of the dataset at partitioning time. Query points
	// are mapped to curve keys against these bounds.
	BoundsLo []float64
	BoundsHi []float64
	Shards   []ShardInfo
}

func (m *ShardMap) encode(e *Encoder) {
	e.String(m.Name)
	e.U8(m.Curve)
	e.F64s(m.BoundsLo)
	e.F64s(m.BoundsHi)
	e.Uvarint(uint64(len(m.Shards)))
	for i := range m.Shards {
		m.Shards[i].encode(e)
	}
}

func (m *ShardMap) decode(d *Decoder) {
	m.Name = d.String("map name")
	m.Curve = d.U8("map curve")
	m.BoundsLo = d.F64s("map bounds lo")
	m.BoundsHi = d.F64s("map bounds hi")
	n := d.Count(minShardInfoBytes, "map shards")
	if d.Err() != nil || n == 0 {
		return
	}
	m.Shards = make([]ShardInfo, n)
	for i := range m.Shards {
		m.Shards[i].decode(d)
	}
}

// ShardMapReq (OpShardMap) asks a router for the topology of a routed
// dataset.
type ShardMapReq struct {
	Name string
}

func (m *ShardMapReq) encode(e *Encoder) { e.String(m.Name) }
func (m *ShardMapReq) decode(d *Decoder) { m.Name = d.String("shard map name") }

// ShardMapReply answers OpShardMap.
type ShardMapReply struct {
	Map ShardMap
}

func (m *ShardMapReply) encode(e *Encoder) { m.Map.encode(e) }
func (m *ShardMapReply) decode(d *Decoder) { m.Map.decode(d) }

// RangePointsReq (OpRangePoints) asks for the ids and coordinates of
// every point inside the box [Lo, Hi].
type RangePointsReq struct {
	Index  string
	Lo, Hi []float64
}

func (m *RangePointsReq) encode(e *Encoder) {
	e.String(m.Index)
	e.F64s(m.Lo)
	e.F64s(m.Hi)
}

func (m *RangePointsReq) decode(d *Decoder) {
	m.Index = d.String("range points index")
	m.Lo = d.F64s("range points lo")
	m.Hi = d.F64s("range points hi")
}

// RangePointsReply answers OpRangePoints. IDs and Points are parallel.
type RangePointsReply struct {
	IDs    []uint64
	Points [][]float64
}

func (m *RangePointsReply) encode(e *Encoder) {
	e.U64s(m.IDs)
	e.Uvarint(uint64(len(m.Points)))
	for _, p := range m.Points {
		e.F64s(p)
	}
}

func (m *RangePointsReply) decode(d *Decoder) {
	m.IDs = d.U64s("range points ids")
	n := d.Count(1, "range points points")
	if d.Err() != nil {
		return
	}
	if n > 0 {
		m.Points = make([][]float64, n)
		for i := range m.Points {
			m.Points[i] = d.F64s("range points point")
		}
	}
}
