package geom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel tests' shapes: dimensions on and off the 2-D body, owner
// counts of every residue mod 4 (the general body's group width) and
// beyond one owner tile, candidate counts beyond one candidate tile.
var (
	blockDims   = []int{1, 2, 3, 4, 5, 7, 8, 10, 30}
	blockOwners = []int{1, 2, 3, 4, 5, 6, 7, BlockOwnerTile + 1, 2*BlockOwnerTile + 3}
	blockCands  = []int{1, 13, BlockCandTile + 9}
)

// TestDistSqBlockMatchesScalar checks the kernel contract on random
// matrices of mixed magnitude with infinities: every pair at or below its
// owner's limit holds the exact squared distance bit-for-bit, and every
// pair above it is a true reject (the exact distance exceeds the limit
// too).
func TestDistSqBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range blockDims {
		for _, m := range blockOwners {
			for _, n := range blockCands {
				owners := mixedMatrix(rng, m, dim)
				cands := mixedMatrix(rng, n, dim)
				limits := make([]float64, m)
				for i := range limits {
					switch rng.Intn(4) {
					case 0:
						limits[i] = math.Inf(1)
					case 1:
						limits[i] = 0.1 * rng.Float64()
					case 2:
						limits[i] = 2 * rng.Float64() * float64(dim)
					default:
						limits[i] = 1e18 * rng.Float64()
					}
				}
				out := make([]float64, n*m)
				DistSqBlock(owners, m, cands, n, dim, limits, out)
				for ci := 0; ci < n; ci++ {
					cp := Point(cands[ci*dim : (ci+1)*dim])
					for oi := 0; oi < m; oi++ {
						op := Point(owners[oi*dim : (oi+1)*dim])
						exact := DistSq(op, cp)
						got := out[ci*m+oi]
						if got <= limits[oi] {
							if math.Float64bits(got) != math.Float64bits(exact) {
								t.Fatalf("dim=%d m=%d n=%d pair(%d,%d): kernel %v != exact %v (limit %v)",
									dim, m, n, oi, ci, got, exact, limits[oi])
							}
						} else if exact <= limits[oi] {
							t.Fatalf("dim=%d m=%d n=%d pair(%d,%d): kernel rejected %v but exact %v <= limit %v",
								dim, m, n, oi, ci, got, exact, limits[oi])
						}
					}
				}
			}
		}
	}
}

// TestDistSqBlockAccumulationOrder pins the bit-identity guarantee the
// engine's byte-identical parallel output depends on: the kernel's value
// must equal a single-accumulator ascending-dimension scalar loop, not
// merely be close to it.
func TestDistSqBlockAccumulationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range blockDims {
		for _, m := range blockOwners {
			for _, n := range blockCands {
				owners := mixedMatrix(rng, m, dim)
				cands := mixedMatrix(rng, n, dim)
				limits := make([]float64, m)
				for i := range limits {
					limits[i] = math.Inf(1)
				}
				out := make([]float64, n*m)
				DistSqBlock(owners, m, cands, n, dim, limits, out)
				for ci := 0; ci < n; ci++ {
					for oi := 0; oi < m; oi++ {
						s := scalarDistSq(owners[oi*dim:(oi+1)*dim], cands[ci*dim:(ci+1)*dim])
						if math.Float64bits(out[ci*m+oi]) != math.Float64bits(s) {
							t.Fatalf("dim=%d m=%d n=%d pair(%d,%d): kernel bits %v differ from scalar accumulation %v",
								dim, m, n, oi, ci, out[ci*m+oi], s)
						}
					}
				}
			}
		}
	}
}

// FuzzDistSqBlock holds every value the kernel stores to the scalar
// ascending-dimension sum, bit for bit, whatever the limits. The first
// three inputs pick the dimension and the owner and candidate counts; the
// coordinates and the limits are data's 8-byte words as raw float64 bits,
// reused cyclically, so infinities, NaNs and subnormals all occur. A NaN
// matches any NaN: Go leaves open which operand's payload an add keeps.
func FuzzDistSqBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range [][3]int{{10, 9, 5}, {3, 67, 2}, {30, 6, 131}, {2, 5, 7}} {
		words := mixedMatrix(rng, c[1]+c[2]+1, c[0])
		data := make([]byte, 0, 8*len(words))
		for _, w := range words {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(w))
		}
		f.Add(uint8(c[0]), uint8(c[1]), uint8(c[2]), data)
	}
	f.Fuzz(func(t *testing.T, dimIn, mIn, nIn uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		dim := 1 + int(dimIn)%32
		m := 1 + int(mIn)%(BlockOwnerTile+8)
		n := 1 + int(nIn)%(BlockCandTile+8)
		word := 0
		next := func() float64 {
			at := 8 * (word % (len(data) / 8))
			word++
			return math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
		}
		fill := func(k int) []float64 {
			out := make([]float64, k)
			for i := range out {
				out[i] = next()
			}
			return out
		}
		owners, cands, limits := fill(m*dim), fill(n*dim), fill(m)
		out := make([]float64, n*m)
		DistSqBlock(owners, m, cands, n, dim, limits, out)
		for ci := 0; ci < n; ci++ {
			for oi := 0; oi < m; oi++ {
				s := scalarDistSq(owners[oi*dim:(oi+1)*dim], cands[ci*dim:(ci+1)*dim])
				got := out[ci*m+oi]
				if math.Float64bits(got) != math.Float64bits(s) && !(math.IsNaN(got) && math.IsNaN(s)) {
					t.Fatalf("dim=%d m=%d n=%d pair(%d,%d): kernel %v, scalar %v (limit %v)",
						dim, m, n, oi, ci, got, s, limits[oi])
				}
			}
		}
	})
}

// scalarDistSq is the reference accumulation: one accumulator, ascending
// dimensions.
func scalarDistSq(p, q []float64) float64 {
	var s float64
	for d := range p {
		diff := p[d] - q[d]
		s += diff * diff
	}
	return s
}

// mixedMatrix draws coordinates whose magnitudes span 1e-3 to 1e9, with
// one in a hundred an infinity of either sign, so that sums lose low
// bits to rounding and the order of accumulation shows in the result.
func mixedMatrix(rng *rand.Rand, rows, dim int) []float64 {
	out := make([]float64, rows*dim)
	for i := range out {
		switch r := rng.Intn(100); {
		case r == 0:
			out[i] = math.Inf(1)
		case r == 1:
			out[i] = math.Inf(-1)
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-3))
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, dim int) []float64 {
	out := make([]float64, rows*dim)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// BenchmarkDistSqBlock times one full owner x candidate tile per
// dimension and reports the cost of one pair.
func BenchmarkDistSqBlock(b *testing.B) {
	for _, dim := range []int{2, 3, 6, 10, 30} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m, n := BlockOwnerTile, BlockCandTile
			owners := randMatrix(rng, m, dim)
			cands := randMatrix(rng, n, dim)
			limits := make([]float64, m)
			for i := range limits {
				limits[i] = math.Inf(1)
			}
			out := make([]float64, n*m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DistSqBlock(owners, m, cands, n, dim, limits, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*n), "ns/pair")
		})
	}
}
