// Quickstart: build two small indexes and run an All-Nearest-Neighbor
// query between them, then an All-3-Nearest-Neighbor self-join.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"allnn/ann"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	// Two datasets in the unit square: 12 "query" points and 40 "target"
	// points.
	queries := make([]ann.Point, 12)
	for i := range queries {
		queries[i] = ann.Point{rng.Float64(), rng.Float64()}
	}
	targets := make([]ann.Point, 40)
	for i := range targets {
		targets[i] = ann.Point{rng.Float64(), rng.Float64()}
	}

	// Index both sides. The defaults give an MBRQT index and NXNDIST
	// pruning — the configuration the paper recommends.
	r, err := ann.BuildIndex(queries, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	s, err := ann.BuildIndex(targets, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// All-Nearest-Neighbors: one result per query point.
	results, err := ann.JoinAll(ctx, r, s, 1, false, ann.QueryConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("All nearest neighbors (query -> target):")
	for _, res := range results {
		nn := res.Neighbors[0]
		fmt.Printf("  query %2d (%.2f, %.2f) -> target %2d (%.2f, %.2f)  dist %.3f\n",
			res.ID, res.Point[0], res.Point[1], nn.ID, nn.Point[0], nn.Point[1], nn.Dist)
	}

	// AkNN self-join: for every target point, its 3 nearest other targets.
	fmt.Println("\n3 nearest neighbors of the first few target points (self-join):")
	selfResults, err := ann.JoinAll(ctx, s, s, 3, true, ann.QueryConfig{})
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range selfResults[:5] {
		fmt.Printf("  target %2d:", res.ID)
		for _, nn := range res.Neighbors {
			fmt.Printf("  %2d@%.3f", nn.ID, nn.Dist)
		}
		fmt.Println()
	}
}
