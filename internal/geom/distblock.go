package geom

// Cache-blocked batch distance kernel: an owner-tile x candidate-tile
// block of squared distances over packed row-major coordinate matrices.
// The engine's leaf join does not call it: it compares each distance with
// its owner's bound as soon as the sum is complete (core's leafJoin.add).
// Its one caller is the benchmark's layer probe, so
// geom.distblock_ns_per_pair_* no longer measures the engine; the kernel,
// its tile constants and that probe go together at the next change to the
// benchmark.

const (
	// BlockOwnerTile is the kernel's owner-axis tile. 64 owners x 8 bytes
	// x dim stays within L1 alongside one candidate tile for the paper's
	// 2-3 dimensional datasets.
	BlockOwnerTile = 64
	// BlockCandTile is the candidate-axis tile, and the natural flush
	// granularity for callers batching candidates incrementally.
	BlockCandTile = 128
)

// DistSqBlock computes squared Euclidean distances between m owner points
// and n candidate points, both given as packed row-major matrices
// (owners[oi*dim:(oi+1)*dim] is owner oi), writing out[ci*m+oi] for every
// pair: the exact squared distance, accumulated dimension by dimension in
// ascending order — bit for bit the scalar sum (Go does not reassociate
// floating-point expressions). limits is read only for its length check:
// the benchmark's probe, the one caller, passes it.
func DistSqBlock(owners []float64, m int, cands []float64, n, dim int, limits, out []float64) {
	if len(owners) != m*dim || len(cands) != n*dim {
		panic("geom: DistSqBlock matrix length mismatch")
	}
	if len(limits) < m || len(out) < n*m {
		panic("geom: DistSqBlock limits/out too short")
	}
	for c0 := 0; c0 < n; c0 += BlockCandTile {
		c1 := min(c0+BlockCandTile, n)
		for o0 := 0; o0 < m; o0 += BlockOwnerTile {
			o1 := min(o0+BlockOwnerTile, m)
			if dim == 2 {
				distSqBlock2D(owners, cands, o0, o1, c0, c1, m, out)
			} else {
				distSqBlockGeneric(owners, cands, o0, o1, c0, c1, m, dim, out)
			}
		}
	}
}

// distSqBlock2D is the dim==2 tile body: dx*dx + dy*dy matches the scalar
// loop's ascending-dimension accumulation exactly.
func distSqBlock2D(owners, cands []float64, o0, o1, c0, c1, m int, out []float64) {
	for ci := c0; ci < c1; ci++ {
		cx, cy := cands[2*ci], cands[2*ci+1]
		row := out[ci*m : ci*m+m]
		for oi := o0; oi < o1; oi++ {
			dx := owners[2*oi] - cx
			dy := owners[2*oi+1] - cy
			row[oi] = dx*dx + dy*dy
		}
	}
}

// distSqBlockGeneric is the any-dimension tile body. A single pair's sum
// is one dependent chain of adds, so the body takes four owners per
// candidate with four independent accumulators, which the processor
// overlaps; each accumulator still adds its dimensions in ascending
// order. The owners left over (o1-o0 mod 4) take the scalar loop.
func distSqBlockGeneric(owners, cands []float64, o0, o1, c0, c1, m, dim int, out []float64) {
	for ci := c0; ci < c1; ci++ {
		cp := cands[ci*dim : (ci+1)*dim]
		row := out[ci*m : ci*m+m]
		oi := o0
		for ; oi+4 <= o1; oi += 4 {
			p0 := owners[oi*dim : (oi+1)*dim]
			p1 := owners[(oi+1)*dim : (oi+2)*dim]
			p2 := owners[(oi+2)*dim : (oi+3)*dim]
			p3 := owners[(oi+3)*dim : (oi+4)*dim]
			var s0, s1, s2, s3 float64
			for d, c := range cp {
				d0, d1, d2, d3 := p0[d]-c, p1[d]-c, p2[d]-c, p3[d]-c
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			row[oi], row[oi+1], row[oi+2], row[oi+3] = s0, s1, s2, s3
		}
		for ; oi < o1; oi++ {
			op := owners[oi*dim : (oi+1)*dim]
			var s float64
			for d, c := range cp {
				diff := op[d] - c
				s += diff * diff
			}
			row[oi] = s
		}
	}
}
