// Clustering: use an AkNN self-join as the neighborhood step of
// friends-of-friends / single-linkage clustering — the workload that
// motivates ANN in the paper's introduction (HOP group finding in
// astrophysics, single-linkage hierarchical clustering).
//
// Points closer than a linking length are "friends"; clusters are the
// connected components of the friendship graph. One AkNN pass provides
// the candidate edges; union-find stitches the components.
//
// Run with: go run ./examples/clustering
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"allnn/ann"
)

const (
	pointsPerBlob     = 150
	blobs             = 5
	noisePoints       = 60
	linkingLength     = 0.05
	neighborsPerPoint = 8
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Synthetic workload: a few tight Gaussian blobs plus uniform noise.
	var pts []ann.Point
	for b := 0; b < blobs; b++ {
		cx, cy := rng.Float64(), rng.Float64()
		for i := 0; i < pointsPerBlob; i++ {
			pts = append(pts, ann.Point{cx + rng.NormFloat64()*0.01, cy + rng.NormFloat64()*0.01})
		}
	}
	for i := 0; i < noisePoints; i++ {
		pts = append(pts, ann.Point{rng.Float64(), rng.Float64()})
	}

	ix, err := ann.BuildIndex(pts, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// One AkNN self-join provides each point's nearest neighbors; edges
	// shorter than the linking length connect components.
	results, err := ann.JoinAll(context.Background(), ix, ix, neighborsPerPoint, true, ann.QueryConfig{})
	if err != nil {
		log.Fatal(err)
	}

	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	edges := 0
	for _, res := range results {
		for _, nn := range res.Neighbors {
			if nn.Dist <= linkingLength {
				union(int(res.ID), int(nn.ID))
				edges++
			}
		}
	}

	sizes := map[int]int{}
	for i := range pts {
		sizes[find(i)]++
	}
	var clusterSizes []int
	singletons := 0
	for _, sz := range sizes {
		if sz == 1 {
			singletons++
		} else {
			clusterSizes = append(clusterSizes, sz)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(clusterSizes)))

	fmt.Printf("friends-of-friends clustering of %d points (linking length %.3f)\n",
		len(pts), linkingLength)
	fmt.Printf("  friendship edges from AkNN (k=%d): %d\n", neighborsPerPoint, edges)
	fmt.Printf("  clusters found: %d (expected ~%d blobs)\n", len(clusterSizes), blobs)
	for i, sz := range clusterSizes {
		if i >= 8 {
			fmt.Printf("  ... and %d more\n", len(clusterSizes)-8)
			break
		}
		fmt.Printf("  cluster %d: %d points\n", i+1, sz)
	}
	fmt.Printf("  noise singletons: %d\n", singletons)
}
