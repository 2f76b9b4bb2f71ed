// Star catalog cross-matching: the astronomy workload behind the paper's
// TAC experiments. Two catalogs observe overlapping sky regions with
// slightly different astrometry; for every star of the first catalog we
// find its nearest counterpart in the second and accept the match when
// the separation is within an astrometric tolerance.
//
// This is exactly an All-Nearest-Neighbor query between two point sets in
// (right ascension, declination) space.
//
// Run with: go run ./examples/starcatalog
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"allnn/ann"
)

const (
	catalogSize = 20000
	// Positional scatter between the two observations, in degrees.
	astrometricJitter = 0.0004
	// Matches farther than this are considered different stars.
	matchTolerance = 0.002
	// Fraction of catalog B stars that are spurious detections.
	spuriousFraction = 0.08
)

func main() {
	rng := rand.New(rand.NewSource(1999))

	// Catalog A: clustered star fields on a band of sky (10x10 degrees).
	catalogA := make([]ann.Point, 0, catalogSize)
	for len(catalogA) < catalogSize {
		// Star fields of ~200 stars around random field centers.
		cx, cy := rng.Float64()*10, rng.Float64()*10
		for i := 0; i < 200 && len(catalogA) < catalogSize; i++ {
			catalogA = append(catalogA, ann.Point{
				cx + rng.NormFloat64()*0.2,
				cy + rng.NormFloat64()*0.2,
			})
		}
	}

	// Catalog B: the same stars re-observed with jitter, a few dropped,
	// plus spurious detections.
	catalogB := make([]ann.Point, 0, catalogSize)
	trueMatch := make(map[int]int) // catalog A index -> catalog B index
	for i, star := range catalogA {
		if rng.Float64() < 0.05 {
			continue // not detected in the second epoch
		}
		trueMatch[i] = len(catalogB)
		catalogB = append(catalogB, ann.Point{
			star[0] + rng.NormFloat64()*astrometricJitter,
			star[1] + rng.NormFloat64()*astrometricJitter,
		})
	}
	spurious := int(float64(len(catalogB)) * spuriousFraction)
	for i := 0; i < spurious; i++ {
		catalogB = append(catalogB, ann.Point{rng.Float64() * 10, rng.Float64() * 10})
	}

	ixA, err := ann.BuildIndex(catalogA, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ixB, err := ann.BuildIndex(catalogB, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	matches, err := ann.JoinAll(context.Background(), ixA, ixB, 1, false, ann.QueryConfig{})
	if err != nil {
		log.Fatal(err)
	}

	accepted, correct, rejected := 0, 0, 0
	for _, m := range matches {
		nn := m.Neighbors[0]
		if nn.Dist <= matchTolerance {
			accepted++
			if want, ok := trueMatch[int(m.ID)]; ok && want == int(nn.ID) {
				correct++
			}
		} else {
			rejected++
		}
	}

	fmt.Printf("cross-matched %d stars against %d detections\n", len(catalogA), len(catalogB))
	fmt.Printf("  accepted matches (sep <= %.4f deg): %d\n", matchTolerance, accepted)
	fmt.Printf("  of which correct counterparts:      %d (%.1f%%)\n",
		correct, 100*float64(correct)/float64(accepted))
	fmt.Printf("  rejected (no counterpart in range): %d\n", rejected)
	fmt.Printf("  stars truly present in both epochs: %d\n", len(trueMatch))
}
