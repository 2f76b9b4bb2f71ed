// Deduplication: find near-duplicate records with the distance-join
// operations. A sensor network reports positions with noise; readings
// within a tolerance radius of each other are the same physical object
// observed twice. WithinDistance finds all such pairs in one pass, and
// ClosestPairs surfaces the most suspicious (closest) ones for review.
//
// Run with: go run ./examples/deduplication
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"allnn/ann"
)

const (
	trueObjects = 3000
	dupFraction = 0.15  // share of objects reported twice
	noise       = 0.002 // sensor noise (km)
	tolerance   = 0.01  // readings closer than this are duplicates (km)
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))

	// True object positions in a 10 km x 10 km area, plus duplicated
	// reports with sensor noise.
	var readings []ann.Point
	duplicateOf := map[int]int{} // reading index -> index of its twin
	for i := 0; i < trueObjects; i++ {
		p := ann.Point{rng.Float64() * 10, rng.Float64() * 10}
		readings = append(readings, p)
		if rng.Float64() < dupFraction {
			dup := ann.Point{p[0] + rng.NormFloat64()*noise, p[1] + rng.NormFloat64()*noise}
			duplicateOf[len(readings)] = len(readings) - 1
			readings = append(readings, dup)
		}
	}

	ix, err := ann.BuildIndex(readings, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// All pairs within the tolerance radius: each duplicate pair appears
	// twice (once per direction), so deduplicate on r < s.
	pairs := map[[2]uint64]float64{}
	err = ann.WithinDistanceContext(ctx, ix, ix, tolerance, true, func(r, s uint64, dist float64) error {
		if r < s {
			pairs[[2]uint64{r, s}] = dist
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	correct := 0
	for p := range pairs {
		if twin, ok := duplicateOf[int(p[1])]; ok && twin == int(p[0]) {
			correct++
		}
	}
	fmt.Printf("scanned %d readings (%d true objects, %d duplicated reports)\n",
		len(readings), trueObjects, len(duplicateOf))
	fmt.Printf("  candidate duplicate pairs within %.0f m: %d\n", tolerance*1000, len(pairs))
	fmt.Printf("  of which true sensor duplicates:         %d (%.1f%% precision)\n",
		correct, 100*float64(correct)/float64(len(pairs)))

	// The closest pairs are the highest-confidence duplicates.
	top, err := ann.ClosestPairsContext(ctx, ix, ix, 10, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  highest-confidence duplicates (closest pairs):")
	seen := map[[2]uint64]bool{}
	for _, p := range top {
		a, b := p.R, p.S
		if a > b {
			a, b = b, a
		}
		if seen[[2]uint64{a, b}] {
			continue
		}
		seen[[2]uint64{a, b}] = true
		fmt.Printf("    readings %5d and %5d: %.2f m apart\n", a, b, p.Dist*1000)
	}
}
