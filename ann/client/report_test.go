package client

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"allnn/ann"
	"allnn/internal/wire"
)

// hostileReports are report blocks a broken or hostile server could put
// on an END frame. Each must fail to decode.
var hostileReports = map[string]string{
	"empty":                   ``,
	"malformed JSON":          `{"engine":`,
	"trailing garbage":        `{} x`,
	"not an object":           `[1,2]`,
	"string counter":          `{"engine":{"DistanceCalcs":"7"}}`,
	"negative counter":        `{"engine":{"DistanceCalcs":-1}}`,
	"counter above 2^64":      `{"pool":{"Misses":18446744073709551616}}`,
	"negative stage clock":    `{"timings":{"wall_ns":-1}}`,
	"negative residency":      `{"cache_residency":{"Bytes":-4096}}`,
	"negative admission wait": `{"service":{"admission_wait_ns":-5}}`,
	"negative bytes":          `{"service":{"bytes_out":-1}}`,
	"trace id with a space":   `{"service":{"trace_id":"has space"}}`,
	"trace id with a quote":   `{"service":{"trace_id":"a\"b"}}`,
	"trace id too long":       `{"service":{"trace_id":"` + strings.Repeat("a", wire.MaxTraceIDLen+1) + `"}}`,
}

// TestReportDecodeRejectsHostile holds the client's report and stats
// decode to the checks the wire decode used to make: malformed JSON, a
// negative duration or size and an unloggable trace id are errors, while
// counters above 2^53 come back exact.
func TestReportDecodeRejectsHostile(t *testing.T) {
	for name, b := range hostileReports {
		if rep, err := decodeReport([]byte(b)); err == nil {
			t.Errorf("%s: report %q accepted as %+v", name, b, rep)
		}
	}
	for _, b := range []string{`{"points":-1}`, `{"cache_bytes":-1}`, `{"wal_replay_ns":-2}`, `{"pinned_frames":-1}`, `{"pool_hits":-1}`, `nope`} {
		var st ann.IndexStats
		if err := decodeRecord("stats", []byte(b), &st); err == nil {
			t.Errorf("stats %q accepted as %+v", b, st)
		}
	}

	rep, err := decodeReport([]byte(`{"engine":{"DistanceCalcs":18446744073709551615},"pool":{"Misses":9007199254740993},"service":{"trace_id":"t-1","engine_ns":12}}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine.DistanceCalcs != math.MaxUint64 || rep.Pool.Misses != 1<<53+1 {
		t.Errorf("large counters decoded as %d and %d", rep.Engine.DistanceCalcs, rep.Pool.Misses)
	}
	if rep.TraceID != "t-1" || rep.EngineTime != 12 {
		t.Errorf("service section decoded as %+v", rep.ServiceReport)
	}
	var st ann.IndexStats
	if err := decodeRecord("stats", []byte(`{"wal_records":18446744073709551614}`), &st); err != nil || st.WALRecords != math.MaxUint64-1 {
		t.Errorf("stats counter decoded as %d (%v)", st.WALRecords, err)
	}
}

// TestHostileReportEndsConnection serves END frames carrying hostile
// reports, stats and shard-map replies that do not decode to a valid
// record, and BatchKNN replies whose rows do not match the probes: each
// is an error that ends the connection, so the next request fails at
// once with the same error.
func TestHostileReportEndsConnection(t *testing.T) {
	var body, batch atomic.Value // the reply the handler sends, set before each request
	svc := &wire.Service{Name: "test", Handler: func(_ context.Context, hdr wire.RequestHeader, _ wire.Message, _ string, w *wire.ResponseWriter) error {
		if hdr.Op == wire.OpBatchKNN {
			return w.Send(wire.KindResult, &wire.BatchKNNReply{Results: batch.Load().([]wire.Result)})
		}
		b := []byte(body.Load().(string))
		switch hdr.Op {
		case wire.OpStats:
			return w.Send(wire.KindResult, &wire.StatsReply{Stats: b})
		case wire.OpShardMap:
			return w.Send(wire.KindResult, &wire.ShardMapReply{Map: b})
		}
		return w.Send(wire.KindEnd, &wire.StreamEnd{Count: 0, Report: b})
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		<-serveDone
	})
	ctx := context.Background()

	requireLatched := func(name string, cl *Client, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		if _, ok := err.(*wire.Error); ok {
			t.Errorf("%s: failed as a server error %v, want a decode error", name, err)
		}
		if _, next := cl.List(ctx); next != err {
			t.Errorf("%s: next request returned %v, want the latched %v", name, next, err)
		}
	}
	for name, b := range hostileReports {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		body.Store(b)
		st, err := cl.SelfJoinWith(ctx, "pts", 1, JoinOptions{WantReport: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Next() {
			t.Fatalf("%s: stream yielded a row", name)
		}
		if st.Report() != nil {
			t.Errorf("%s: hostile report returned", name)
		}
		requireLatched(name, cl, st.Err())
		cl.Close()
	}
	for _, b := range []string{`{"pinned_frames":-1}`, `{"points":`} {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		body.Store(b)
		_, err = cl.Stats(ctx, "pts")
		requireLatched("stats "+b, cl, err)
		cl.Close()
	}
	for _, b := range []string{`{"name":`, `{"name":"pts","curve":"peano","bounds_lo":[0],"bounds_hi":[1]}`} {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		body.Store(b)
		_, err = cl.ShardMap(ctx, "pts")
		requireLatched("shard map "+b, cl, err)
		cl.Close()
	}
	for name, rows := range map[string][]wire.Result{
		"batch row missing":       {{ID: 0}},
		"batch row extra":         {{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}},
		"batch rows out of place": {{ID: 0}, {ID: 2}, {ID: 1}},
	} {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		batch.Store(rows)
		_, err = cl.BatchKNN(ctx, "pts", []ann.Point{{0, 0}, {1, 1}, {2, 2}}, 1)
		requireLatched(name, cl, err)
		cl.Close()
	}
}

// FuzzDecodeReport feeds arbitrary bytes to the client's report and
// stats decoders: they must never panic, and whatever they accept must
// re-encode to JSON that decodes to the same record.
func FuzzDecodeReport(f *testing.F) {
	var rep QueryReport
	fillDistinct(reflect.ValueOf(&rep).Elem(), new(int64))
	rep.TraceID = "req-0042"
	var st ann.IndexStats
	fillDistinct(reflect.ValueOf(&st).Elem(), new(int64))
	for _, v := range []any{rep, st} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range hostileReports {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if rep, err := decodeReport(b); err == nil {
			re, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			again, err := decodeReport(re)
			if err != nil || !reflect.DeepEqual(again, rep) {
				t.Fatalf("report %s re-encoded as %s decodes to %+v (%v)", b, re, again, err)
			}
		}
		var st ann.IndexStats
		if err := decodeRecord("stats", b, &st); err == nil {
			re, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var again ann.IndexStats
			if err := decodeRecord("stats", re, &again); err != nil || again != st {
				t.Fatalf("stats %s re-encoded as %s decode to %+v (%v)", b, re, again, err)
			}
		}
	})
}

// fillDistinct sets every integer field of v to the next value of *n, so
// a seed built from it carries every key of the record.
func fillDistinct(v reflect.Value, n *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), n)
		}
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(*n)
	case reflect.Uint64:
		*n++
		v.SetUint(uint64(*n) << 40)
	}
}
