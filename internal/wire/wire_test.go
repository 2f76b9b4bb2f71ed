package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// requestSamples covers every request op with representative field
// values, including empty-slice edge cases.
func requestSamples() []struct {
	hdr  RequestHeader
	body Message
} {
	return []struct {
		hdr  RequestHeader
		body Message
	}{
		{RequestHeader{ID: 1, Op: OpOpen, Timeout: 2 * time.Second}, &OpenReq{Name: "pts", Path: "/tmp/pts.pages"}},
		{RequestHeader{ID: 2, Op: OpClose}, &CloseReq{Name: "pts"}},
		{RequestHeader{ID: 3, Op: OpList}, &ListReq{}},
		{RequestHeader{ID: 4, Op: OpStats, Timeout: time.Millisecond}, &StatsReq{Name: "pts"}},
		{RequestHeader{ID: 5, Op: OpKNN}, &KNNReq{Index: "pts", K: 4, Point: []float64{1.5, -2.25}}},
		{RequestHeader{ID: 6, Op: OpBatchKNN}, &BatchKNNReq{Index: "pts", K: 1, Points: [][]float64{{0, 0}, {9, 9}}}},
		{RequestHeader{ID: 7, Op: OpRange}, &RangeReq{Index: "pts", Lo: []float64{0, 0}, Hi: []float64{10, 10}}},
		{RequestHeader{ID: 8, Op: OpJoin}, &JoinReq{R: "r", S: "s", K: 4}},
		{RequestHeader{ID: 9, Op: OpJoin}, &JoinReq{R: "r", K: 1, Self: true}},
		{RequestHeader{ID: 10, Op: OpWithinDistance}, &WithinReq{R: "r", S: "r", Dist: 3.5, ExcludeSelf: true}},
		{RequestHeader{ID: 11, Op: OpClosestPairs}, &PairsReq{R: "r", S: "s", K: 8}},
		{RequestHeader{ID: 12, Op: OpKNN}, &KNNReq{Index: "", K: 0, Point: nil}},
		// Trace header extension (flags + trace ID directly after the body).
		{RequestHeader{ID: 13, Op: OpJoin, Timeout: time.Second, TraceID: "req-0042", WantReport: true}, &JoinReq{R: "r", K: 1, Self: true}},
		{RequestHeader{ID: 14, Op: OpKNN, TraceID: "probe/7"}, &KNNReq{Index: "pts", K: 2, Point: []float64{1, 2}}},
		{RequestHeader{ID: 15, Op: OpJoin, WantReport: true}, &JoinReq{R: "r", S: "s", K: 2}},
		{RequestHeader{ID: 16, Op: OpJoin, TraceID: "join-rs"}, &JoinReq{R: "r", S: "s", K: 10}},
		{RequestHeader{ID: 17, Op: OpBatchKNN, TraceID: "batch-1"}, &BatchKNNReq{Index: "pts", K: 3, Points: [][]float64{{1, 1}}}},
		{RequestHeader{ID: 18, Op: OpWithinDistance, Timeout: time.Millisecond, TraceID: "w"}, &WithinReq{R: "r", S: "s", Dist: 0.5}},
		// Mutations.
		{RequestHeader{ID: 19, Op: OpInsert}, &InsertReq{Index: "pts", IDs: []uint64{10, 11}, Points: [][]float64{{1, 2}, {3, 4}}}},
		{RequestHeader{ID: 20, Op: OpDelete}, &DeleteReq{Index: "pts", IDs: []uint64{10}, Points: [][]float64{{1, 2}}}},
		// Shard-routing frames (protocol version 2).
		{RequestHeader{ID: 21, Op: OpShardMap}, &ShardMapReq{Name: "pts"}},
		{RequestHeader{ID: 22, Op: OpRange, Timeout: time.Second}, &RangeReq{Index: "pts", Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}}},
		{RequestHeader{ID: 23, Op: OpRange, TraceID: "strip-3"}, &RangeReq{Index: "s0"}},
	}
}

// sampleShardMap is a two-shard topology exercising every ShardMap
// field.
func sampleShardMap() ShardMap {
	return ShardMap{
		Name:     "pts",
		Curve:    "hilbert",
		BoundsLo: []float64{0, 0},
		BoundsHi: []float64{1, 1},
		Shards: []ShardInfo{
			{Name: "pts-s0", Addr: "10.0.0.1:7070", LoKey: 0, HiKey: 1 << 40, IDBase: 0, Count: 500,
				MBRLo: []float64{0, 0}, MBRHi: []float64{0.6, 1}},
			{Name: "pts-s1", Addr: "10.0.0.2:7070", LoKey: 1<<40 + 1, HiKey: math.MaxUint64, IDBase: 500, Count: 500,
				MBRLo: []float64{0.4, 0}, MBRHi: []float64{1, 1}},
		},
	}
}

// sampleReport is a report block as the server encodes one; the wire
// carries its bytes without reading them.
func sampleReport() []byte {
	return []byte(`{"engine":{"DistanceCalcs":1000,"Results":7},"timings":{"wall_ns":2000},"service":{"trace_id":"req-0042","bytes_out":3000}}`)
}

// responseSamples covers every (kind, op) response shape.
func responseSamples() []struct {
	id   uint64
	kind ResponseKind
	op   Op
	body Message
} {
	nb := []Neighbor{{ID: 7, Dist: 1.25, Point: []float64{3, 4}}}
	res := []Result{{ID: 0, Point: []float64{1, 2}, Neighbors: nb}, {ID: 1}}
	prs := []Pair{{R: 1, S: 2, Dist: 0.5}}
	return []struct {
		id   uint64
		kind ResponseKind
		op   Op
		body Message
	}{
		{1, KindResult, OpOpen, &OpenReply{Info: IndexInfo{Name: "pts", Points: 100, Dim: 2}}},
		{2, KindResult, OpClose, &CloseReply{}},
		{3, KindResult, OpList, &ListReply{Indexes: []IndexInfo{{Name: "a", Points: 1, Dim: 3}, {Name: "b"}}}},
		{4, KindResult, OpStats, &StatsReply{Stats: []byte(`{"points":100,"dim":2,"pool_hits":10,"cache_bytes":1048576,"wal_records":42}`)}},
		{5, KindResult, OpKNN, &KNNReply{Neighbors: nb}},
		{6, KindResult, OpBatchKNN, &BatchKNNReply{Results: res}},
		{7, KindStream, OpRange, &JoinFrame{Results: []Result{{ID: 3, Point: []float64{1, 2}}, {ID: 1, Point: []float64{0.5, 0}}, {ID: 4}}}},
		{8, KindStream, OpJoin, &JoinFrame{Results: res}},
		{9, KindStream, OpWithinDistance, &PairFrame{Pairs: prs}},
		{10, KindResult, OpClosestPairs, &PairsReply{Pairs: prs}},
		{11, KindEnd, OpJoin, &StreamEnd{Count: 42}},
		{12, KindError, OpKNN, &ErrorReply{Code: CodeServerBusy, Msg: "queue full"}},
		{13, KindResult, OpKNN, &KNNReply{}},
		{14, KindEnd, OpJoin, &StreamEnd{Count: 7, Report: sampleReport()}},
		{15, KindEnd, OpJoin, &StreamEnd{Count: 0, Report: []byte("{}")}},
		{16, KindResult, OpInsert, &InsertReply{Inserted: 2, Size: 102}},
		{17, KindResult, OpDelete, &DeleteReply{Found: 1, Size: 101}},
		{18, KindError, OpInsert, &ErrorReply{Code: CodeWriteFailed, Msg: "fsync failed"}},
		// Shard-routing frames (protocol version 2).
		{19, KindResult, OpShardMap, &ShardMapReply{Map: sampleShardMapJSON()}},
		{20, KindStream, OpRange, &JoinFrame{Results: []Result{{ID: 3, Point: []float64{0.1, 0.2}}, {ID: 7, Point: []float64{0.3, 0.4}}}}},
		{21, KindEnd, OpRange, &StreamEnd{Count: 2}},
		{22, KindResult, OpKNN, &KNNReply{Neighbors: []Neighbor{{ID: 500, Dist: 0.5, Point: []float64{1, 2, 3}}, {ID: 9, Dist: 0.75}}}},
		{23, KindResult, OpBatchKNN, &BatchKNNReply{Results: []Result{{ID: 0, Point: []float64{0.5, 0.5}}}}},
		{24, KindError, OpRange, &ErrorReply{Code: CodeBadRequest, Msg: "inverted box bounds in dimension 0: [1, 0]"}},
		// A routed answer is complete or an error: a routed stream that
		// needs a dead shard fails before its first row.
		{25, KindError, OpJoin, &ErrorReply{Code: CodeShardUnavailable, Msg: "shard pts-s1 unavailable: connection refused"}},
		{26, KindError, OpKNN, &ErrorReply{Code: CodeShardUnavailable, Msg: "dial refused"}},
		{27, KindStream, OpRange, &JoinFrame{Results: []Result{{ID: 9, Point: []float64{1.5, -2.5}}}}},
		{28, KindError, OpBatchKNN, &ErrorReply{Code: CodeBadRequest, Msg: "a batch of 300 probes with k=2000 may need a 20409364-byte reply"}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, s := range requestSamples() {
		payload, err := EncodeRequest(s.hdr, s.body, nil)
		if err != nil {
			t.Fatalf("encode %s: %v", s.hdr.Op, err)
		}
		hdr, body, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("decode %s: %v", s.hdr.Op, err)
		}
		if hdr != s.hdr {
			t.Errorf("%s: header %+v, want %+v", s.hdr.Op, hdr, s.hdr)
		}
		if !reflect.DeepEqual(body, s.body) {
			t.Errorf("%s: body %+v, want %+v", s.hdr.Op, body, s.body)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, s := range responseSamples() {
		payload, err := EncodeResponse(s.id, s.kind, s.op, s.body, nil)
		if err != nil {
			t.Fatalf("encode (%d,%s): %v", s.kind, s.op, err)
		}
		id, kind, op, body, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode (%d,%s): %v", s.kind, s.op, err)
		}
		if id != s.id || kind != s.kind || op != s.op {
			t.Errorf("envelope (%d,%d,%s), want (%d,%d,%s)", id, kind, op, s.id, s.kind, s.op)
		}
		if !reflect.DeepEqual(body, s.body) {
			t.Errorf("(%d,%s): body %+v, want %+v", s.kind, s.op, body, s.body)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	// Unknown op.
	if _, _, err := DecodeRequest([]byte{0, 0, 0, 0, 0, 0, 0, 1, 99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown op accepted")
	}
	// Truncated header.
	if _, _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
	// Trailing garbage after a valid message.
	payload, _ := EncodeRequest(RequestHeader{ID: 1, Op: OpList}, &ListReq{}, nil)
	if _, _, err := DecodeRequest(append(payload, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// So is a version-4 router's partial-result block after a reply.
	reply, _ := EncodeResponse(1, KindResult, OpKNN, &KNNReply{}, nil)
	if _, _, _, _, err := DecodeResponse(append(reply, 1, 2, 's', '1')); err == nil {
		t.Error("trailing partial-result block accepted")
	}
	// A huge announced count with no backing bytes must fail cleanly,
	// not allocate.
	e := NewEncoder(nil)
	e.U64(1)
	e.U8(uint8(OpKNN))
	e.I64(0)
	e.String("pts")
	e.U32(1)
	e.Uvarint(1 << 40) // count of a point that isn't there
	if _, _, err := DecodeRequest(e.Bytes()); err == nil {
		t.Error("absurd count accepted")
	}
	// Streaming kinds are invalid for non-streaming ops.
	if _, err := EncodeResponse(1, KindStream, OpKNN, &JoinFrame{}, nil); err == nil {
		t.Error("KindStream for OpKNN accepted")
	}
}

// TestTraceExtension pins the layout of the trace header extension:
// zero-valued trace fields encode to the unextended frame, which ends at
// the body; set ones append the flags byte and the trace-id string
// directly after the body; and hostile flags or trace IDs are rejected
// at decode.
func TestTraceExtension(t *testing.T) {
	plain, err := EncodeRequest(RequestHeader{ID: 1, Op: OpJoin}, &JoinReq{R: "r", K: 1, Self: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder(nil)
	e.U64(1)
	e.U8(uint8(OpJoin))
	e.I64(0)
	(&JoinReq{R: "r", K: 1, Self: true}).encode(e)
	if !bytes.Equal(plain, e.Bytes()) {
		t.Error("zero trace fields do not encode to header + body alone")
	}
	traced, err := EncodeRequest(RequestHeader{ID: 1, Op: OpJoin, TraceID: "t-1", WantReport: true}, &JoinReq{R: "r", K: 1, Self: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// flags (1) + string len uvarint (1) + "t-1" (3), right after the body.
	if want := append(append([]byte(nil), plain...), flagWantReport, 3, 't', '-', '1'); !bytes.Equal(traced, want) {
		t.Fatalf("traced frame\n%x\nwant\n%x", traced, want)
	}
	// A frame without the extension decodes with zero trace fields.
	hdr, _, err := DecodeRequest(plain)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.TraceID != "" || hdr.WantReport {
		t.Errorf("unextended frame decoded with trace fields %q/%v", hdr.TraceID, hdr.WantReport)
	}
	// The full round trip preserves every header field.
	full := RequestHeader{ID: 9, Op: OpJoin, Timeout: time.Second, TraceID: "abc-123", WantReport: true}
	payload, err := EncodeRequest(full, &JoinReq{R: "r", K: 1, Self: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, err = DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != full {
		t.Errorf("round trip = %+v, want %+v", hdr, full)
	}

	// Hostile trace extensions must be rejected at decode: unknown flag
	// bits, oversized IDs, and IDs with unprintable or quoting bytes.
	encodeRaw := func(flags uint8, trace string) []byte {
		e := NewEncoder(nil)
		e.U64(1)
		e.U8(uint8(OpJoin))
		e.I64(0)
		(&JoinReq{R: "r", K: 1, Self: true}).encode(e)
		e.U8(flags)
		e.String(trace)
		return e.Bytes()
	}
	bad := []struct {
		flags uint8
		trace string
	}{
		{0x02, "ok"}, // unknown flag bit
		{0x80, ""},   // unknown flag bit
		{0x01, string(bytes.Repeat([]byte{'a'}, 129))}, // over MaxTraceIDLen
		{0x01, "has space"},
		{0x01, "new\nline"},
		{0x01, `has"quote`},
		{0x01, `back\slash`},
		{0x01, "\x7f"},
	}
	for _, tc := range bad {
		if _, _, err := DecodeRequest(encodeRaw(tc.flags, tc.trace)); err == nil {
			t.Errorf("hostile trace extension (flags=0x%02x, trace=%q) accepted", tc.flags, tc.trace)
		}
	}
	// The encoder enforces the same trace-ID contract.
	if _, err := EncodeRequest(RequestHeader{ID: 1, Op: OpJoin, TraceID: "bad id"}, &JoinReq{R: "r", K: 1}, nil); err == nil {
		t.Error("encoder accepted an invalid trace id")
	}
}

// TestStreamEndReport pins the report block's compatibility contract: a
// report-free StreamEnd is byte-identical to the pre-report format, and a
// report-bearing one is that frame plus one length-prefixed field that
// decodes losslessly. The report's contents are the client's to validate
// (ann/client TestReportDecodeRejectsHostile).
func TestStreamEndReport(t *testing.T) {
	bare, err := EncodeResponse(3, KindEnd, OpJoin, &StreamEnd{Count: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Envelope (8+1+1) + count (8): the exact pre-report frame size.
	if len(bare) != 8+1+1+8 {
		t.Fatalf("bare StreamEnd is %d bytes, want 18", len(bare))
	}
	_, _, _, body, err := DecodeResponse(bare)
	if err != nil {
		t.Fatal(err)
	}
	if end := body.(*StreamEnd); end.Count != 5 || end.Report != nil {
		t.Errorf("bare StreamEnd decoded as %+v", end)
	}

	rep := sampleReport()
	withRep, err := EncodeResponse(3, KindEnd, OpJoin, &StreamEnd{Count: 5, Report: rep}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withRep[:len(bare)], bare) {
		t.Error("report-bearing StreamEnd is not the bare frame plus a trailing block")
	}
	// A uvarint length, then the JSON itself.
	if got, want := len(withRep)-len(bare), len(binary.AppendUvarint(nil, uint64(len(rep))))+len(rep); got != want {
		t.Errorf("report block is %d bytes, want %d", got, want)
	}
	_, _, _, body, err = DecodeResponse(withRep)
	if err != nil {
		t.Fatal(err)
	}
	if got := body.(*StreamEnd).Report; !bytes.Equal(got, rep) {
		t.Errorf("report round trip = %q, want %q", got, rep)
	}
	// A block whose length overruns the frame is malformed.
	if _, _, _, _, err := DecodeResponse(withRep[:len(withRep)-1]); err == nil {
		t.Error("truncated report block accepted")
	}
}

// sampleShardMapJSON is sampleShardMap as OpShardMap carries it.
func sampleShardMapJSON() []byte {
	b, err := json.Marshal(sampleShardMap())
	if err != nil {
		panic(err)
	}
	return b
}

// TestShardMapRoundTrip carries the shard map's record through an
// OpShardMap reply and back, and checks the invariants Validate holds a
// map file and a served map to.
func TestShardMapRoundTrip(t *testing.T) {
	payload, err := EncodeResponse(9, KindResult, OpShardMap, &ShardMapReply{Map: sampleShardMapJSON()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, body, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	var got ShardMap
	if err := json.Unmarshal(body.(*ShardMapReply).Map, &got); err != nil {
		t.Fatal(err)
	}
	if want := sampleShardMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("shard map round trip = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("sample map invalid: %v", err)
	}
	for name, breakIt := range map[string]func(m *ShardMap){
		"unknown curve":       func(m *ShardMap) { m.Curve = "peano" },
		"no shards":           func(m *ShardMap) { m.Shards = nil },
		"key gap":             func(m *ShardMap) { m.Shards[1].LoKey++ },
		"short key space":     func(m *ShardMap) { m.Shards[1].HiKey-- },
		"id gap":              func(m *ShardMap) { m.Shards[1].IDBase++ },
		"mbr dims":            func(m *ShardMap) { m.Shards[0].MBRLo = m.Shards[0].MBRLo[:1] },
		"empty shard address": func(m *ShardMap) { m.Shards[0].Addr = "" },
	} {
		m := sampleShardMap()
		breakIt(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: map accepted", name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 100_000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d bytes, want %d", len(got), len(p))
		}
	}
	// An announced length beyond MaxFrame is rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadHandshake(bytes.NewReader([]byte("HTTP1"))); err == nil {
		t.Error("bad magic accepted")
	}
	if err := ReadHandshake(bytes.NewReader([]byte{'A', 'N', 'N', 'S', 99})); err == nil {
		t.Error("future version accepted")
	}
	// The version gate: there is one version, and a peer one version
	// behind — version 5, whose box query answered in one frame that a
	// large box overflowed — is told both.
	if err := ReadHandshake(bytes.NewReader([]byte{'A', 'N', 'N', 'S', 0})); err == nil {
		t.Error("version 0 accepted")
	}
	err := ReadHandshake(bytes.NewReader([]byte{'A', 'N', 'N', 'S', 5}))
	if err == nil {
		t.Fatal("version 5 accepted")
	}
	if want := fmt.Sprintf("protocol version 5, want %d", Version); !strings.Contains(err.Error(), want) {
		t.Errorf("version 5 refused as %q, want it to name both versions (%q)", err, want)
	}
}

func TestErrorHelpers(t *testing.T) {
	err := error(&Error{Code: CodeServerBusy, Msg: "queue full"})
	if !IsCode(err, CodeServerBusy) || IsCode(err, CodeNotFound) {
		t.Error("IsCode misclassified")
	}
	wrapped := errors.Join(errors.New("outer"), err)
	if !IsCode(wrapped, CodeServerBusy) {
		t.Error("IsCode missed wrapped error")
	}
	if got := err.Error(); got != "SERVER_BUSY: queue full" {
		t.Errorf("Error() = %q", got)
	}
}
