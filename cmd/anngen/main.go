// Command anngen generates the experimental datasets (the GSTD-style
// synthetic workloads and the TAC/FC surrogates) as binary dataset files
// readable by annquery and the benchmark harness.
//
// Examples:
//
//	anngen -kind synthetic -n 500000 -dim 4 -out 500K4D.pts
//	anngen -kind tac -n 700000 -out tac.pts
//	anngen -kind fc  -n 580000 -out fc.pts
//	anngen -kind uniform -n 100000 -dim 2 -extent 1000 -out uni.pts
//
// With -shards N the dataset is additionally partitioned into N
// space-filling-curve range shards (per -curve): the main output file
// is written in curve order (the global id order a router reproduces),
// one <base>.shardK<ext> file per shard holds that shard's points, and
// <base>.shardmap.json holds the router topology. Backend addresses can
// be filled in at generation time with -shard-addrs or edited into the
// JSON afterwards:
//
//	anngen -kind clusters -n 100000 -out pts.pts -shards 4 -curve hilbert \
//	    -shard-addrs :4321,:4322,:4323,:4324
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"allnn/internal/curve"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/obs"
	"allnn/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anngen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and generates a dataset; separated from main for
// testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("anngen", flag.ContinueOnError)
	var (
		kind     = fs.String("kind", "synthetic", "dataset kind: uniform | clusters | skewed | synthetic | tac | fc")
		n        = fs.Int("n", 100000, "number of points")
		dim      = fs.Int("dim", 2, "dimensionality (uniform/clusters/skewed/synthetic)")
		seed     = fs.Int64("seed", 1, "random seed")
		extent   = fs.Float64("extent", 1000, "space extent per dimension (uniform/clusters/skewed)")
		clusters = fs.Int("clusters", 40, "number of clusters (clusters kind)")
		spread   = fs.Float64("spread", 0.02, "cluster spread as a fraction of the extent")
		skew     = fs.Float64("skew", 3, "skew exponent (skewed kind)")
		out      = fs.String("out", "", "output file (required)")
		shards   = fs.Int("shards", 0, "partition into this many curve-range shards (0: single file, no shard map)")
		curveStr = fs.String("curve", "hilbert", "partitioning curve: zorder | hilbert (with -shards)")
		addrsStr = fs.String("shard-addrs", "", "comma-separated backend addresses for the shard map (with -shards; may be left blank and edited into the JSON)")
	)
	var prof obs.ProfileFlags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	stopProf, err := prof.Start(nil)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			log.Printf("profile: %v", perr)
		}
	}()

	var pts []geom.Point
	switch *kind {
	case "uniform":
		pts = datagen.Uniform(*seed, *n, datagen.ScaledBounds(*dim, *extent))
	case "clusters":
		pts = datagen.GaussianClusters(*seed, *n, datagen.ScaledBounds(*dim, *extent), *clusters, *spread)
	case "skewed":
		pts = datagen.Skewed(*seed, *n, datagen.ScaledBounds(*dim, *extent), *skew)
	case "synthetic":
		pts = datagen.Synthetic500K(*seed, *n, *dim)
	case "tac":
		pts = datagen.TACSurrogate(*seed, *n)
	case "fc":
		pts = datagen.FCSurrogate(*seed, *n)
	default:
		return fmt.Errorf("unknown dataset kind %q", *kind)
	}

	if *shards > 0 {
		return writeSharded(stdout, *out, pts, *shards, *curveStr, *addrsStr)
	}

	if err := datagen.WriteFile(*out, pts); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d %d-dimensional points to %s\n", len(pts), len(pts[0]), *out)
	return nil
}

// writeSharded partitions pts by curve range and writes the
// curve-ordered full dataset, the per-shard datasets, and the shard
// map. The full file's point order is the concatenation of the shards
// in key order — exactly the global id order a router over the shards
// produces, so it doubles as the single-node parity baseline.
func writeSharded(stdout io.Writer, out string, pts []geom.Point, n int, curveStr, addrsStr string) error {
	kind, err := curve.ParseKind(curveStr)
	if err != nil {
		return err
	}
	part, err := curve.Partition(pts, n, kind)
	if err != nil {
		return err
	}

	ext := filepath.Ext(out)
	base := strings.TrimSuffix(out, ext)
	var addrs []string
	if addrsStr != "" {
		addrs = strings.Split(addrsStr, ",")
		if len(addrs) != len(part.Shards) {
			return fmt.Errorf("-shard-addrs names %d backends but the partitioning produced %d shards", len(addrs), len(part.Shards))
		}
	}

	ordered := make([]geom.Point, 0, len(pts))
	for i, s := range part.Shards {
		shardPts := make([]geom.Point, len(s.Points))
		for j, idx := range s.Points {
			shardPts[j] = pts[idx]
		}
		ordered = append(ordered, shardPts...)
		path := fmt.Sprintf("%s.shard%d%s", base, i, ext)
		if err := datagen.WriteFile(path, shardPts); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote shard %d: %d points, keys [%d, %d] to %s\n",
			i, len(shardPts), s.LoKey, s.HiKey, path)
	}
	if err := datagen.WriteFile(out, ordered); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d %d-dimensional points (curve-ordered) to %s\n", len(ordered), len(ordered[0]), out)

	name := filepath.Base(base)
	m := router.MapFromPartitioning(name, part, addrs)
	mapPath := base + ".shardmap.json"
	if err := router.SaveMapFile(mapPath, m); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote shard map (%d shards, %s curve) to %s\n", len(m.Shards), m.Curve, mapPath)
	return nil
}
