// Command annrouter is the scatter-gather front-end for a fleet of
// annserve shards. It loads one or more shard-map files (written by
// anngen -shards), speaks the same wire protocol as annserve on the
// client side, and routes point kNN, batched kNN, range, range-points,
// within-distance, and streamed ANN self-join queries across the
// backends, pruning shards with NXNDIST/MINDIST bounds and merging
// per-shard answers into single-node-identical results.
//
// Examples:
//
//	annrouter -addr :4320 -shardmap pts.shardmap.json
//	annrouter -addr :4320 -shardmap pts.shardmap.json -fanout 8
//
// A routed answer is exact or an error: a request that needs a shard
// whose backend is unreachable fails with SHARD_UNAVAILABLE. SIGTERM or
// SIGINT drains gracefully, exactly as annserve does.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"allnn/internal/obs"
	"allnn/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annrouter: ")
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		log.Fatal(err)
	}
}

// mapFlags collects repeated -shardmap paths.
type mapFlags []string

func (f *mapFlags) String() string { return fmt.Sprintf("%d shard maps", len(*f)) }

func (f *mapFlags) Set(v string) error {
	if v == "" {
		return fmt.Errorf("want a shard-map path")
	}
	*f = append(*f, v)
	return nil
}

// run starts the router and blocks until a shutdown signal drains it;
// separated from main for testability. If ready is non-nil it receives
// the bound listen address once the router is accepting.
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("annrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":4320", "TCP listen address")
		maps         mapFlags
		fanout       = fs.Int("fanout", 0, "max concurrently outstanding backend RPCs, which also bounds the connections pooled per backend (0: 2x GOMAXPROCS; 1: serial scatter over one connection per backend)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight queries before cancelling them")
		backoffBase  = fs.Duration("backoff-base", 100*time.Millisecond, "initial per-backend cool-off after a transport failure")
		backoffMax   = fs.Duration("backoff-max", 5*time.Second, "cap on the per-backend cool-off")
	)
	fs.Var(&maps, "shardmap", "load a shard-map JSON file (repeatable, one per routed dataset)")
	var prof obs.ProfileFlags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(maps) == 0 {
		return fmt.Errorf("no -shardmap given (nothing to route)")
	}

	var files []*router.MapFile
	for _, path := range maps {
		m, err := router.LoadMapFile(path)
		if err != nil {
			return err
		}
		files = append(files, m)
	}

	reg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		MaxFanout:   *fanout,
		BackoffBase: *backoffBase,
		BackoffMax:  *backoffMax,
		Metrics:     reg,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "annrouter: "+format+"\n", a...)
		},
	}, files...)
	if err != nil {
		return err
	}
	for _, m := range files {
		fmt.Fprintf(stderr, "annrouter: routing %s: %d shards, %s curve\n",
			m.Name, len(m.Shards), m.Curve)
	}

	stopProf, err := prof.Start(reg)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(stderr, "annrouter: profile: %v\n", perr)
		}
	}()
	if prof.BoundAddr != "" {
		fmt.Fprintf(stderr, "annrouter: obs endpoints on http://%s/ (metrics, metrics/prom, debug/pprof)\n", prof.BoundAddr)
	}

	return rt.ListenAndServe(*addr, *drainTimeout, ready)
}
