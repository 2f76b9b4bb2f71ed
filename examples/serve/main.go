// Serve: run the ANN query service in-process — build an index, mount
// it in a server catalog, and drive point kNN, batched kNN, and a
// streamed AkNN self-join through the typed client, then read the
// server's metrics snapshot.
//
// Run with: go run ./examples/serve
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/obs"
	"allnn/internal/server"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	pts := make([]ann.Point, 2000)
	for i := range pts {
		pts[i] = ann.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// A server with an obs registry: per-op latency histograms, the
	// in-flight gauge, and the engine's pruning counters all land here.
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Metrics: reg})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		log.Fatal(err)
	}
	defer srv.Catalog().CloseAll()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Point kNN.
	nbs, err := cl.KNN(ctx, "pts", ann.Point{50, 50}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3 nearest to (50,50):")
	for _, nb := range nbs {
		fmt.Printf("  point %d at %.4f\n", nb.ID, nb.Dist)
	}

	// Batched kNN: one round trip for many query points.
	batch, err := cl.BatchKNN(ctx, "pts", []ann.Point{{10, 10}, {90, 90}}, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range batch {
		fmt.Printf("batch query %d -> point %d at %.4f\n",
			res.ID, res.Neighbors[0].ID, res.Neighbors[0].Dist)
	}

	// Streamed AkNN self-join: results arrive in frames as the engine
	// produces them; no full materialisation on either side.
	st, err := cl.SelfJoin(ctx, "pts", 2)
	if err != nil {
		log.Fatal(err)
	}
	joined := 0
	for st.Next() {
		joined++
	}
	if err := st.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-AkNN (k=2) streamed %d results (server counted %d)\n",
		joined, st.Count())

	// Catalog and server state, straight from the service.
	infos, err := cl.List(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range infos {
		fmt.Printf("catalog: %s (%d points, dim %d)\n", info.Name, info.Points, info.Dim)
	}
	snap := reg.Snapshot()
	fmt.Printf("metrics: %d served requests, %d engine results\n",
		snap.Counters["server.requests"], snap.Counters["engine.results"])
}
