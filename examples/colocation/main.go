// Co-location pattern mining: another application the paper cites (Yoo,
// Shekhar, Celik; ICDM 2005). Given two spatial feature classes — say,
// fast-food outlets and gas stations along a road network — measure how
// strongly the features co-locate: the fraction of each class whose
// nearest instance of the other class lies within a neighborhood radius
// (the participation ratio of the co-location pattern).
//
// Both directions of the measurement are single All-Nearest-Neighbor
// queries between the two feature datasets.
//
// Run with: go run ./examples/colocation
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"allnn/ann"
)

const neighborhoodRadius = 0.8 // kilometres

func main() {
	rng := rand.New(rand.NewSource(5))

	// A synthetic 40 km x 40 km city. Gas stations cluster along "roads"
	// (horizontal bands); fast food co-locates with 70% of the stations
	// and also appears independently downtown.
	var gas []ann.Point
	for road := 0; road < 12; road++ {
		y := rng.Float64() * 40
		for i := 0; i < 60; i++ {
			gas = append(gas, ann.Point{rng.Float64() * 40, y + rng.NormFloat64()*0.1})
		}
	}
	var food []ann.Point
	for _, g := range gas {
		if rng.Float64() < 0.7 {
			food = append(food, ann.Point{g[0] + rng.NormFloat64()*0.3, g[1] + rng.NormFloat64()*0.3})
		}
	}
	for i := 0; i < 500; i++ { // independent downtown outlets
		food = append(food, ann.Point{18 + rng.Float64()*4, 18 + rng.Float64()*4})
	}

	ixGas, err := ann.BuildIndex(gas, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ixFood, err := ann.BuildIndex(food, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	participation := func(from, to *ann.Index) (float64, error) {
		results, err := ann.AllNearestNeighborsContext(context.Background(), from, to, ann.QueryConfig{})
		if err != nil {
			return 0, err
		}
		within := 0
		for _, r := range results {
			if len(r.Neighbors) > 0 && r.Neighbors[0].Dist <= neighborhoodRadius {
				within++
			}
		}
		return float64(within) / float64(len(results)), nil
	}

	prGas, err := participation(ixGas, ixFood)
	if err != nil {
		log.Fatal(err)
	}
	prFood, err := participation(ixFood, ixGas)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("co-location of %d gas stations and %d fast-food outlets (radius %.1f km)\n",
		len(gas), len(food), neighborhoodRadius)
	fmt.Printf("  participation(gas -> food): %.2f\n", prGas)
	fmt.Printf("  participation(food -> gas): %.2f\n", prFood)
	pi := prGas
	if prFood < pi {
		pi = prFood
	}
	fmt.Printf("  participation index (min):  %.2f\n", pi)
	switch {
	case pi > 0.5:
		fmt.Println("  => strong co-location pattern")
	case pi > 0.25:
		fmt.Println("  => moderate co-location pattern")
	default:
		fmt.Println("  => weak or no co-location")
	}
}
