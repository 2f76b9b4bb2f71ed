package wire

import (
	"reflect"
	"testing"
)

// batchReply renders the spine's BatchKNN reply shape: n results of k
// neighbors each, all dim-dimensional.
func batchReply(n, k, dim int) (*BatchKNNReply, []byte) {
	pt := func(seed int) []float64 {
		p := make([]float64, dim)
		for d := range p {
			p[d] = float64(seed*dim + d)
		}
		return p
	}
	m := &BatchKNNReply{Results: make([]Result, n)}
	for i := range m.Results {
		nbs := make([]Neighbor, k)
		for j := range nbs {
			nbs[j] = Neighbor{ID: uint64(i*k + j), Dist: float64(j), Point: pt(i + j)}
		}
		m.Results[i] = Result{ID: uint64(i), Point: pt(i), Neighbors: nbs}
	}
	payload, err := EncodeResponse(1, KindResult, OpBatchKNN, m, nil)
	if err != nil {
		panic(err)
	}
	return m, payload
}

// TestReplyDecodeSharesBackingArrays pins the decode of a BatchKNN reply
// to a handful of allocations — the message, its result array, one
// coordinate array, one neighbor array — instead of one per point and per
// neighbor list, and checks what the sharing must not break: the values
// round-trip, and appending to one decoded slice cannot reach the next.
func TestReplyDecodeSharesBackingArrays(t *testing.T) {
	for _, dim := range []int{2, 10} {
		want, payload := batchReply(64, 10, dim)
		_, _, _, msg, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(*BatchKNNReply)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dim %d: decoded reply differs from the encoded one", dim)
		}
		first := got.Results[0]
		_ = append(first.Point, -1)
		_ = append(first.Neighbors, Neighbor{ID: ^uint64(0)})
		_ = append(first.Neighbors[0].Point, -1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dim %d: appending to a decoded slice overwrote its neighbour in the shared array", dim)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, _, _, err := DecodeResponse(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("dim %d: decoding a 64x10 BatchKNN reply takes %.0f allocations, want <= 6", dim, allocs)
		}
	}
}

// BenchmarkDecodeBatchKNNReply is the spine's wire.batch_resp_decode_ns
// shape (64 results x 10 neighbors, 2-D) as a Go benchmark.
func BenchmarkDecodeBatchKNNReply(b *testing.B) {
	_, payload := batchReply(64, 10, 2)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := DecodeResponse(payload); err != nil {
			b.Fatal(err)
		}
	}
}
