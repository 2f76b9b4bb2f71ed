package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"allnn/internal/core"
)

// Message is one encodable protocol body (request or response). The
// concrete type is selected by the frame's header — op for requests,
// (kind, op) for responses — so bodies carry no type tag of their own.
type Message interface {
	encode(*Encoder)
	decode(*Decoder)
}

// --- rows -------------------------------------------------------------------

// Neighbor, Result and Pair are the engine's own rows, which ann aliases
// too: a row is declared once, in internal/core, and crosses every hop —
// engine, server, router, client — as it is. The field order on the wire
// is the codec's below, not the struct's.
type (
	Neighbor = core.Neighbor
	Result   = core.Result
	Pair     = core.Pair
)

func encodeNeighbors(e *Encoder, nbs []Neighbor) {
	e.Uvarint(uint64(len(nbs)))
	for i := range nbs {
		e.U64(nbs[i].ID)
		e.F64(nbs[i].Dist)
		e.F64s(nbs[i].Point)
	}
}

// minNeighborBytes is the smallest encoding of a Neighbor (empty point),
// used to validate counts before allocating.
const minNeighborBytes = 8 + 8 + 1

// neighbors reads a counted neighbor list, carved from the reply's
// neighbor array when reserve has sized one.
func (d *Decoder) neighbors(what string) []Neighbor {
	n := d.Count(minNeighborBytes, what)
	if d.Err() != nil || n == 0 {
		return nil
	}
	var nbs []Neighbor
	if at := len(d.nbs); cap(d.nbs)-at >= n {
		d.nbs = d.nbs[:at+n]
		nbs = d.nbs[at : at+n : at+n]
	} else {
		nbs = make([]Neighbor, n)
	}
	for i := range nbs {
		if b := d.take(16, "neighbor id and dist"); b != nil {
			nbs[i].ID = binary.BigEndian.Uint64(b)
			nbs[i].Dist = math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
		}
		nbs[i].Point = d.F64s("neighbor point")
	}
	return nbs
}

// reserve walks the rest of a reply body — results encoded Results, or a
// bare neighbor list when results is 0 — without decoding it, counts the
// coordinates and neighbors it holds, and allocates the two arrays F64s
// and neighbors then carve from: exactly what the reply needs, and never
// more than its bytes can encode. It is advisory: on a malformed body it
// stops counting, and the decode proper (which falls back to one
// allocation per list) reports the error.
func (d *Decoder) reserve(results int) {
	b := d.buf[d.off:]
	floats, nbs := 0, 0
	count := func(elemBytes int) (int, bool) {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w)/uint64(elemBytes) {
			return 0, false
		}
		b = b[w:]
		return int(n), true
	}
	point := func() bool {
		n, ok := count(8)
		floats, b = floats+n, b[8*n:]
		return ok
	}
	list := func() bool {
		k, ok := count(minNeighborBytes)
		for ; ok && k > 0; k-- {
			if len(b) < 16 {
				return false
			}
			b = b[16:] // id, dist
			ok = point()
			nbs++
		}
		return ok
	}
	if results == 0 {
		list()
	}
	for ; results > 0 && len(b) >= 8; results-- {
		b = b[8:] // id
		if !point() || !list() {
			break
		}
	}
	d.f64s, d.nbs = make([]float64, 0, floats), make([]Neighbor, 0, nbs)
}

// minResultBytes is the smallest encoding of a Result (empty point and
// neighbor list), used to validate counts before allocating.
const minResultBytes = 8 + 1 + 1

func encodeResults(e *Encoder, rs []Result) {
	e.Uvarint(uint64(len(rs)))
	for i := range rs {
		e.U64(rs[i].ID)
		e.F64s(rs[i].Point)
		encodeNeighbors(e, rs[i].Neighbors)
	}
}

// results reads a counted result list into fresh arrays (reserve sizes
// the coordinate and neighbor arrays they are carved from).
func (d *Decoder) results(what string) []Result {
	n := d.Count(minResultBytes, what)
	if d.Err() != nil || n == 0 {
		return nil
	}
	d.reserve(n)
	rs := make([]Result, n)
	for i := range rs {
		rs[i].ID = d.U64("result id")
		rs[i].Point = d.F64s("result point")
		rs[i].Neighbors = d.neighbors("result neighbors")
	}
	return rs
}

// pairBytes is the fixed encoding of a Pair: two ids and a distance.
const pairBytes = 8 + 8 + 8

func encodePairs(e *Encoder, ps []Pair) {
	e.Uvarint(uint64(len(ps)))
	for i := range ps {
		e.U64(ps[i].R)
		e.U64(ps[i].S)
		e.F64(ps[i].Dist)
	}
}

func (d *Decoder) pairs(what string) []Pair {
	n := d.Count(pairBytes, what)
	if d.Err() != nil || n == 0 {
		return nil
	}
	ps := make([]Pair, n)
	for i := range ps {
		ps[i].R = d.U64("pair r")
		ps[i].S = d.U64("pair s")
		ps[i].Dist = d.F64("pair dist")
	}
	return ps
}

// IndexInfo is one catalog entry as reported by list/open/stats.
type IndexInfo struct {
	Name   string
	Points uint64
	Dim    uint32
}

func (ii *IndexInfo) encode(e *Encoder) {
	e.String(ii.Name)
	e.U64(ii.Points)
	e.U32(ii.Dim)
}

func (ii *IndexInfo) decode(d *Decoder) {
	ii.Name = d.String("index name")
	ii.Points = d.U64("index points")
	ii.Dim = d.U32("index dim")
}

// --- requests ---------------------------------------------------------------

// OpenReq (OpOpen) loads the index file at Path into the catalog as Name.
type OpenReq struct {
	Name string
	Path string
}

func (m *OpenReq) encode(e *Encoder) { e.String(m.Name); e.String(m.Path) }
func (m *OpenReq) decode(d *Decoder) { m.Name = d.String("open name"); m.Path = d.String("open path") }

// CloseReq (OpClose) drops the named index from the catalog.
type CloseReq struct {
	Name string
}

func (m *CloseReq) encode(e *Encoder) { e.String(m.Name) }
func (m *CloseReq) decode(d *Decoder) { m.Name = d.String("close name") }

// ListReq (OpList) has no body.
type ListReq struct{}

func (m *ListReq) encode(*Encoder) {}
func (m *ListReq) decode(*Decoder) {}

// StatsReq (OpStats) snapshots the named index.
type StatsReq struct {
	Name string
}

func (m *StatsReq) encode(e *Encoder) { e.String(m.Name) }
func (m *StatsReq) decode(d *Decoder) { m.Name = d.String("stats name") }

// KNNReq (OpKNN) is a single point probe against a catalog index.
type KNNReq struct {
	Index string
	K     uint32
	Point []float64
}

func (m *KNNReq) encode(e *Encoder) {
	e.String(m.Index)
	e.U32(m.K)
	e.F64s(m.Point)
}

func (m *KNNReq) decode(d *Decoder) {
	m.Index = d.String("knn index")
	m.K = d.U32("knn k")
	m.Point = d.F64s("knn point")
}

// BatchKNNReq (OpBatchKNN) carries many probe points in one request.
type BatchKNNReq struct {
	Index  string
	K      uint32
	Points [][]float64
}

func (m *BatchKNNReq) encode(e *Encoder) {
	e.String(m.Index)
	e.U32(m.K)
	e.Uvarint(uint64(len(m.Points)))
	for _, p := range m.Points {
		e.F64s(p)
	}
}

func (m *BatchKNNReq) decode(d *Decoder) {
	m.Index = d.String("batch index")
	m.K = d.U32("batch k")
	n := d.Count(1, "batch points")
	if d.Err() != nil || n == 0 {
		return
	}
	m.Points = make([][]float64, n)
	for i := range m.Points {
		m.Points[i] = d.F64s("batch point")
	}
}

// RangeReq (OpRange) asks for every indexed point inside the box
// [Lo, Hi] (boundaries inclusive). The answer streams like a join's: one
// Result{ID, Point} row per point, with no neighbors, in JoinFrames
// closed by KindEnd, so no box is too large to answer.
type RangeReq struct {
	Index  string
	Lo, Hi []float64
}

func (m *RangeReq) encode(e *Encoder) {
	e.String(m.Index)
	e.F64s(m.Lo)
	e.F64s(m.Hi)
}

func (m *RangeReq) decode(d *Decoder) {
	m.Index = d.String("range index")
	m.Lo = d.F64s("range lo")
	m.Hi = d.F64s("range hi")
}

// JoinReq (OpJoin) runs the AkNN join of R against S — or, with Self
// set, the self-join of R — streaming results back in KindStream frames
// (see Batcher) closed by KindEnd.
type JoinReq struct {
	R, S string
	K    uint32
	Self bool
}

func (m *JoinReq) encode(e *Encoder) {
	e.String(m.R)
	e.String(m.S)
	e.U32(m.K)
	e.Bool(m.Self)
}

func (m *JoinReq) decode(d *Decoder) {
	m.R = d.String("join r")
	m.S = d.String("join s")
	m.K = d.U32("join k")
	m.Self = d.Bool("join self")
}

// WithinReq (OpWithinDistance) streams every cross-index pair within
// Dist as KindStream frames closed by KindEnd. Pass the same name for R
// and S with ExcludeSelf for a self-join.
type WithinReq struct {
	R, S        string
	Dist        float64
	ExcludeSelf bool
}

func (m *WithinReq) encode(e *Encoder) {
	e.String(m.R)
	e.String(m.S)
	e.F64(m.Dist)
	e.Bool(m.ExcludeSelf)
}

func (m *WithinReq) decode(d *Decoder) {
	m.R = d.String("within r")
	m.S = d.String("within s")
	m.Dist = d.F64("within dist")
	m.ExcludeSelf = d.Bool("within exclude-self")
}

// PairsReq (OpClosestPairs) returns the K closest cross-index pairs.
type PairsReq struct {
	R, S        string
	K           uint32
	ExcludeSelf bool
}

func (m *PairsReq) encode(e *Encoder) {
	e.String(m.R)
	e.String(m.S)
	e.U32(m.K)
	e.Bool(m.ExcludeSelf)
}

func (m *PairsReq) decode(d *Decoder) {
	m.R = d.String("pairs r")
	m.S = d.String("pairs s")
	m.K = d.U32("pairs k")
	m.ExcludeSelf = d.Bool("pairs exclude-self")
}

// InsertReq (OpInsert) durably adds a batch of points to a live index.
// IDs and Points are parallel slices; the whole batch is committed with
// one log fsync, so a success reply means all of it survives any crash.
type InsertReq struct {
	Index  string
	IDs    []uint64
	Points [][]float64
}

func (m *InsertReq) encode(e *Encoder) {
	e.String(m.Index)
	e.U64s(m.IDs)
	e.Uvarint(uint64(len(m.Points)))
	for _, p := range m.Points {
		e.F64s(p)
	}
}

func (m *InsertReq) decode(d *Decoder) {
	m.Index = d.String("insert index")
	m.IDs = d.U64s("insert ids")
	n := d.Count(1, "insert points")
	if d.Err() != nil || n == 0 {
		return
	}
	m.Points = make([][]float64, n)
	for i := range m.Points {
		m.Points[i] = d.F64s("insert point")
	}
}

// DeleteReq (OpDelete) durably removes a batch of points (matched by id
// AND coordinates) from a live index. Absent points are durable no-ops,
// counted by the reply's Found.
type DeleteReq struct {
	Index  string
	IDs    []uint64
	Points [][]float64
}

func (m *DeleteReq) encode(e *Encoder) {
	e.String(m.Index)
	e.U64s(m.IDs)
	e.Uvarint(uint64(len(m.Points)))
	for _, p := range m.Points {
		e.F64s(p)
	}
}

func (m *DeleteReq) decode(d *Decoder) {
	m.Index = d.String("delete index")
	m.IDs = d.U64s("delete ids")
	n := d.Count(1, "delete points")
	if d.Err() != nil || n == 0 {
		return
	}
	m.Points = make([][]float64, n)
	for i := range m.Points {
		m.Points[i] = d.F64s("delete point")
	}
}

// --- responses --------------------------------------------------------------

// ErrorReply (KindError) carries a typed failure.
type ErrorReply struct {
	Code ErrorCode
	Msg  string
}

func (m *ErrorReply) encode(e *Encoder) { e.U16(uint16(m.Code)); e.String(m.Msg) }
func (m *ErrorReply) decode(d *Decoder) {
	m.Code = ErrorCode(d.U16("error code"))
	m.Msg = d.String("error msg")
}

// OpenReply answers OpOpen with the opened index's shape.
type OpenReply struct {
	Info IndexInfo
}

func (m *OpenReply) encode(e *Encoder) { m.Info.encode(e) }
func (m *OpenReply) decode(d *Decoder) { m.Info.decode(d) }

// CloseReply answers OpClose.
type CloseReply struct{}

func (m *CloseReply) encode(*Encoder) {}
func (m *CloseReply) decode(*Decoder) {}

// ListReply answers OpList with every catalog entry.
type ListReply struct {
	Indexes []IndexInfo
}

func (m *ListReply) encode(e *Encoder) {
	e.Uvarint(uint64(len(m.Indexes)))
	for i := range m.Indexes {
		m.Indexes[i].encode(e)
	}
}

func (m *ListReply) decode(d *Decoder) {
	n := d.Count(1+1+8+4, "list entries")
	if d.Err() != nil || n == 0 {
		return
	}
	m.Indexes = make([]IndexInfo, n)
	for i := range m.Indexes {
		m.Indexes[i].decode(d)
	}
}

// StatsReply answers OpStats with the JSON encoding of the index's
// ann.IndexStats. The wire carries the record's bytes and nothing else:
// its fields are declared once, on the record, and the client decodes
// and validates them.
type StatsReply struct {
	Stats []byte
}

func (m *StatsReply) encode(e *Encoder) { e.String(string(m.Stats)) }
func (m *StatsReply) decode(d *Decoder) { m.Stats = []byte(d.String("stats")) }

// KNNReply answers OpKNN.
type KNNReply struct {
	Neighbors []Neighbor
}

func (m *KNNReply) encode(e *Encoder) { encodeNeighbors(e, m.Neighbors) }

func (m *KNNReply) decode(d *Decoder) {
	d.reserve(0)
	m.Neighbors = d.neighbors("knn neighbors")
}

// BatchKNNReply answers OpBatchKNN, one Result per query point in
// request order.
type BatchKNNReply struct {
	Results []Result
}

func (m *BatchKNNReply) encode(e *Encoder) { encodeResults(e, m.Results) }
func (m *BatchKNNReply) decode(d *Decoder) { m.Results = d.results("batch results") }

// JoinFrame is one KindStream chunk of an OpJoin or OpRange result
// stream.
type JoinFrame struct {
	Results []Result
}

func (m *JoinFrame) encode(e *Encoder) { encodeResults(e, m.Results) }
func (m *JoinFrame) decode(d *Decoder) { m.Results = d.results("join results") }

// PairFrame is one KindStream chunk of an OpWithinDistance pair stream.
type PairFrame struct {
	Pairs []Pair
}

func (m *PairFrame) encode(e *Encoder) { encodePairs(e, m.Pairs) }
func (m *PairFrame) decode(d *Decoder) { m.Pairs = d.pairs("pair frame") }

// PairsReply answers OpClosestPairs.
type PairsReply struct {
	Pairs []Pair
}

func (m *PairsReply) encode(e *Encoder) { encodePairs(e, m.Pairs) }
func (m *PairsReply) decode(d *Decoder) { m.Pairs = d.pairs("pairs reply") }

// InsertReply answers OpInsert. Size is the index's point count after
// the batch.
type InsertReply struct {
	Inserted uint64
	Size     uint64
}

func (m *InsertReply) encode(e *Encoder) { e.U64(m.Inserted); e.U64(m.Size) }
func (m *InsertReply) decode(d *Decoder) {
	m.Inserted = d.U64("insert inserted")
	m.Size = d.U64("insert size")
}

// DeleteReply answers OpDelete. Found counts the batch entries that
// matched an indexed point; Size is the index's point count after the
// batch.
type DeleteReply struct {
	Found uint64
	Size  uint64
}

func (m *DeleteReply) encode(e *Encoder) { e.U64(m.Found); e.U64(m.Size) }
func (m *DeleteReply) decode(d *Decoder) {
	m.Found = d.U64("delete found")
	m.Size = d.U64("delete size")
}

// ServiceReport is the service section of a served join's report: the
// costs only the server can see. BytesIn is the request frame; BytesOut
// the result frames, excluding the StreamEnd that carries the report,
// whose size is unknowable before it is encoded. It is declared here,
// once, because both speakers and the server's slow-query log need it.
type ServiceReport struct {
	// TraceID echoes the request's trace ID.
	TraceID string `json:"trace_id,omitempty"`
	// AdmissionWait is the time the request spent queued for an
	// execution slot before the engine started.
	AdmissionWait time.Duration `json:"admission_wait_ns"`
	// EngineTime is the server-side wall time of the engine run,
	// excluding flushes of result frames that happened mid-run.
	EngineTime time.Duration `json:"engine_ns"`
	// FlushTime is the total time spent encoding and writing the
	// request's response frames.
	FlushTime time.Duration `json:"flush_ns"`
	BytesIn   uint64        `json:"bytes_in"`
	BytesOut  uint64        `json:"bytes_out"`
}

// StreamEnd (KindEnd) closes a result stream with the total count the
// client should have accumulated — a cheap end-to-end integrity check.
// Report, the JSON encoding of the served report (the engine's
// QueryReport plus a "service" ServiceReport), is attached only when
// the request asked for one (WantReport): a bare StreamEnd is
// byte-identical to the pre-report format, and a client that did not
// ask never has to decode one.
type StreamEnd struct {
	Count  uint64
	Report []byte
}

func (m *StreamEnd) encode(e *Encoder) {
	e.U64(m.Count)
	if m.Report != nil {
		e.String(string(m.Report))
	}
}

func (m *StreamEnd) decode(d *Decoder) {
	m.Count = d.U64("stream end count")
	if d.Err() == nil && d.Remaining() > 0 {
		m.Report = []byte(d.String("stream end report"))
	}
}

// --- envelopes --------------------------------------------------------------

// requestBody returns a fresh body value for op.
func requestBody(op Op) (Message, error) {
	switch op {
	case OpOpen:
		return &OpenReq{}, nil
	case OpClose:
		return &CloseReq{}, nil
	case OpList:
		return &ListReq{}, nil
	case OpStats:
		return &StatsReq{}, nil
	case OpKNN:
		return &KNNReq{}, nil
	case OpBatchKNN:
		return &BatchKNNReq{}, nil
	case OpRange:
		return &RangeReq{}, nil
	case OpJoin:
		return &JoinReq{}, nil
	case OpWithinDistance:
		return &WithinReq{}, nil
	case OpClosestPairs:
		return &PairsReq{}, nil
	case OpInsert:
		return &InsertReq{}, nil
	case OpDelete:
		return &DeleteReq{}, nil
	case OpShardMap:
		return &ShardMapReq{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown request op %d", uint8(op))
	}
}

// responseBody returns a fresh body value for a (kind, op) pair.
func responseBody(kind ResponseKind, op Op) (Message, error) {
	switch kind {
	case KindError:
		return &ErrorReply{}, nil
	case KindEnd:
		return &StreamEnd{}, nil
	case KindStream:
		switch op {
		case OpJoin, OpRange:
			return &JoinFrame{}, nil
		case OpWithinDistance:
			return &PairFrame{}, nil
		}
		return nil, fmt.Errorf("wire: op %s does not stream", op)
	case KindResult:
		switch op {
		case OpOpen:
			return &OpenReply{}, nil
		case OpClose:
			return &CloseReply{}, nil
		case OpList:
			return &ListReply{}, nil
		case OpStats:
			return &StatsReply{}, nil
		case OpKNN:
			return &KNNReply{}, nil
		case OpBatchKNN:
			return &BatchKNNReply{}, nil
		case OpClosestPairs:
			return &PairsReply{}, nil
		case OpInsert:
			return &InsertReply{}, nil
		case OpDelete:
			return &DeleteReply{}, nil
		case OpShardMap:
			return &ShardMapReply{}, nil
		}
		return nil, fmt.Errorf("wire: op %s has no single-frame result", op)
	default:
		return nil, fmt.Errorf("wire: unknown response kind %d", uint8(kind))
	}
}

// EncodeRequest encodes a request payload (header + body) into buf's
// storage, returning the payload. The body type must match hdr.Op —
// the peer's decoder holds callers to it.
func EncodeRequest(hdr RequestHeader, body Message, buf []byte) ([]byte, error) {
	if _, err := requestBody(hdr.Op); err != nil {
		return nil, err
	}
	if err := CheckTraceID(hdr.TraceID); err != nil {
		return nil, err
	}
	e := NewEncoder(buf)
	e.U64(hdr.ID)
	e.U8(uint8(hdr.Op))
	e.I64(int64(hdr.Timeout))
	body.encode(e)
	if hdr.TraceID != "" || hdr.WantReport {
		var flags uint8
		if hdr.WantReport {
			flags |= flagWantReport
		}
		e.U8(flags)
		e.String(hdr.TraceID)
	}
	return e.Bytes(), nil
}

// DecodeRequest decodes a request payload into its header and body.
// Bytes left over after the body are the trace extension (flags byte +
// trace-id string); a frame without one ends at the body. The extension
// is checked here so a hostile frame cannot smuggle unknown flag bits or
// an unloggable trace ID past the typed validation downstream.
func DecodeRequest(payload []byte) (RequestHeader, Message, error) {
	d := NewDecoder(payload)
	var hdr RequestHeader
	hdr.ID = d.U64("request id")
	hdr.Op = Op(d.U8("request op"))
	hdr.Timeout = time.Duration(d.I64("request timeout"))
	if err := d.Err(); err != nil {
		return hdr, nil, err
	}
	if hdr.Timeout < 0 {
		return hdr, nil, fmt.Errorf("wire: negative request timeout %d", hdr.Timeout)
	}
	body, err := requestBody(hdr.Op)
	if err != nil {
		return hdr, nil, err
	}
	body.decode(d)
	if d.Err() == nil && d.Remaining() > 0 {
		flags := d.U8("request flags")
		if flags&^uint8(flagWantReport) != 0 {
			return hdr, nil, fmt.Errorf("wire: unknown request flag bits 0x%02x", flags&^uint8(flagWantReport))
		}
		hdr.WantReport = flags&flagWantReport != 0
		hdr.TraceID = d.String("trace id")
		if d.Err() == nil {
			if err := CheckTraceID(hdr.TraceID); err != nil {
				return hdr, nil, err
			}
		}
	}
	if err := d.Finish(); err != nil {
		return hdr, nil, err
	}
	return hdr, body, nil
}

// EncodeResponse encodes a response payload (id + kind + op + body)
// into buf's storage, returning the payload.
func EncodeResponse(id uint64, kind ResponseKind, op Op, body Message, buf []byte) ([]byte, error) {
	if _, err := responseBody(kind, op); err != nil {
		return nil, err
	}
	e := NewEncoder(buf)
	e.U64(id)
	e.U8(uint8(kind))
	e.U8(uint8(op))
	body.encode(e)
	return e.Bytes(), nil
}

// DecodeResponse decodes a response payload into its request id,
// kind, op, and body.
func DecodeResponse(payload []byte) (uint64, ResponseKind, Op, Message, error) {
	d := NewDecoder(payload)
	id := d.U64("response id")
	kind := ResponseKind(d.U8("response kind"))
	op := Op(d.U8("response op"))
	if err := d.Err(); err != nil {
		return id, kind, op, nil, err
	}
	body, err := responseBody(kind, op)
	if err != nil {
		return id, kind, op, nil, err
	}
	body.decode(d)
	if err := d.Finish(); err != nil {
		return id, kind, op, nil, err
	}
	return id, kind, op, body, nil
}
