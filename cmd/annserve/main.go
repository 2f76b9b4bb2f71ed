// Command annserve is the ANN query daemon: it keeps a catalog of
// disk-resident indexes hot behind one buffer pool each and serves
// point kNN, batched kNN, range, within-distance, closest-pairs, and
// streamed ANN/AkNN join queries over the annserve wire protocol.
//
// Examples:
//
//	annserve -addr :4321 -index pts=catalog.pages
//	annserve -addr :4321 -index r=r.pages -index s=s.pages -pprof-addr :6060
//
// Indexes may also be opened and closed at runtime through the client
// (or annquery -remote). SIGTERM or SIGINT drains gracefully: in-flight
// queries finish, new ones are refused, then the process exits.
//
// -pprof-addr serves /metrics (the server's obs registry: in-flight
// gauge, queue depth, per-op latency histograms, bytes in/out, engine
// counters) alongside /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"allnn/ann"
	"allnn/internal/obs"
	"allnn/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annserve: ")
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		log.Fatal(err)
	}
}

// indexFlags collects repeated -index name=path mounts.
type indexFlags []struct{ name, path string }

func (f *indexFlags) String() string { return fmt.Sprintf("%d indexes", len(*f)) }

func (f *indexFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*f = append(*f, struct{ name, path string }{name, path})
	return nil
}

// run starts the daemon and blocks until a shutdown signal drains it;
// separated from main for testability. If ready is non-nil it receives
// the bound listen address once the server is accepting.
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("annserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":4321", "TCP listen address")
		indexes      indexFlags
		poolBytes    = fs.Int("pool-bytes", 64<<20, "buffer-pool bytes per opened index")
		maxInFlight  = fs.Int("max-inflight", 0, "max concurrently executing queries (0: GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "max queries queued for a slot (0: 4x max-inflight)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight queries before cancelling them")
		tracePath    = fs.String("trace", "", "write request trace spans as Chrome trace-event JSON here on exit")
		slowThresh   = fs.Duration("slow-threshold", 0, "record requests at least this slow in the /debug/slow ring (0: disabled)")
		slowLogSize  = fs.Int("slow-log", 128, "slow-query ring capacity")
		accessLog    = fs.String("access-log", "", "append one JSON line per finished request to this file (- for stderr)")
		logLevel     = fs.String("log-level", "info", "minimum log severity: debug, info, warn or error")
	)
	fs.Var(&indexes, "index", "mount an index file into the catalog as name=path (repeatable)")
	var prof obs.ProfileFlags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var level server.LogLevel
	switch *logLevel {
	case "debug":
		level = server.LevelDebug
	case "info":
		level = server.LevelInfo
	case "warn":
		level = server.LevelWarn
	case "error":
		level = server.LevelError
	default:
		return fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", *logLevel)
	}

	var accessW io.Writer
	if *accessLog == "-" {
		accessW = stderr
	} else if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("access log: %v", err)
		}
		defer f.Close()
		accessW = f
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}

	srv := server.New(server.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		IndexBufferBytes: *poolBytes,
		Metrics:          reg,
		Tracer:           tracer,
		SlowThreshold:    *slowThresh,
		SlowLogSize:      *slowLogSize,
		AccessLog:        accessW,
		LogLevel:         level,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "annserve: "+format+"\n", a...)
		},
	})
	defer srv.Catalog().CloseAll()

	stopProf, err := prof.Start(reg, srv.DebugRoutes()...)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(stderr, "annserve: profile: %v\n", perr)
		}
	}()
	if prof.BoundAddr != "" {
		fmt.Fprintf(stderr, "annserve: obs endpoints on http://%s/ (metrics, metrics/prom, debug/slow, debug/requests, debug/pprof)\n", prof.BoundAddr)
	}
	for _, m := range indexes {
		ix, err := srv.Catalog().Open(m.name, m.path, ann.IndexConfig{BufferPoolBytes: *poolBytes})
		if err != nil {
			return fmt.Errorf("mounting %s: %v", m.name, err)
		}
		fmt.Fprintf(stderr, "annserve: mounted %s: %d points, dim %d\n", m.name, ix.Len(), ix.Dim())
	}

	if err := srv.ListenAndServe(*addr, *drainTimeout, ready); err != nil {
		return err
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
