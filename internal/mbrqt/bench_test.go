package mbrqt

import (
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/storage"
)

// BenchmarkBulkLoad times one bulk load of the spine's two index shapes
// into a fresh in-memory store: the TAC-like 2-D 200 K surrogate and the
// FC-like 10-D 40 K one. B/op and allocs/op are the build's garbage.
func BenchmarkBulkLoad(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  []geom.Point
	}{
		{"tac2d_200k", datagen.TACSurrogate(1, 200_000)},
		{"fc10d_40k", datagen.FCSurrogate(1, 40_000)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool := storage.NewBufferPool(storage.NewMemStore(), 1024)
				if _, err := BulkLoad(pool, c.pts, nil, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
