// Command annquery runs an ANN or AkNN query over dataset files produced
// by anngen — or, with -remote, against a running annserve daemon —
// printing one line per query point.
//
// Examples:
//
//	annquery -r queries.pts -s targets.pts -k 1
//	annquery -r catalog.pts -self -k 5
//	annquery -r catalog.pts -self -trace trace.json -report -quiet
//	annquery -r catalog.pts -self -r-pagefile catalog.pages        # build and persist
//	annquery -r-pagefile catalog.pages -self -k 2                  # reopen, no rebuild
//	annquery -remote localhost:4321 -r pts -self -k 2              # served query
//
// With -remote, -r and -s name indexes in the server's catalog rather
// than dataset files, and the flags that only a local query can honour
// (-r-pagefile, -s-pagefile, -trace and the profiling flags) are
// refused. -trace writes the query's execution trace as
// Chrome trace-event JSON (open at https://ui.perfetto.dev); -report
// prints the unified QueryReport (counters + stage timings) as JSON to
// stderr — with -remote the server computes it and ships it back on the
// stream's end frame, with a "service" section (admission wait, engine
// vs flush time, wire bytes) only the server can measure; -trace-id
// labels a remote request across the server's logs and debug endpoints;
// -cpuprofile, -memprofile and -pprof-addr enable the standard Go
// profiling hooks.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/datagen"
	"allnn/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annquery: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		// log.Fatal: one clean line on stderr, exit code 1 — corrupt or
		// missing files must not stack-trace.
		log.Fatal(err)
	}
}

// localOnly names the flags a served query cannot honour: the server
// owns the index and its page files, and the trace and profiles would
// describe this client, not the query.
var localOnly = map[string]bool{
	"r-pagefile": true, "s-pagefile": true, "trace": true,
	"cpuprofile": true, "memprofile": true, "pprof-addr": true,
}

// run parses args and executes the query; separated from main for
// testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("annquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rPath   = fs.String("r", "", "query dataset file (with -remote: catalog index name)")
		sPath   = fs.String("s", "", "target dataset file (defaults to -r with -self; with -remote: catalog index name)")
		rPage   = fs.String("r-pagefile", "", "query index page file: built and persisted here with -r, reopened without")
		sPage   = fs.String("s-pagefile", "", "target index page file (see -r-pagefile)")
		selfQ   = fs.Bool("self", false, "self-join: exclude each point's own pairing")
		k       = fs.Int("k", 1, "neighbors per query point")
		quiet   = fs.Bool("quiet", false, "suppress per-point output; print only the summary")
		timeout = fs.Duration("timeout", 0, "abort the query after this long (0 disables); exits with ctx deadline error")
		remote  = fs.String("remote", "", "route the query to the annserve daemon at this address")
		traceID = fs.String("trace-id", "", "with -remote: label the request in the server's logs and debug endpoints")

		tracePath = fs.String("trace", "", "write a Chrome trace-event JSON of the query here (open at ui.perfetto.dev)")
		report    = fs.Bool("report", false, "print the unified QueryReport (counters + stage timings) as JSON to stderr")
	)
	var prof obs.ProfileFlags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *remote != "" {
		var local []string
		fs.Visit(func(f *flag.Flag) {
			if localOnly[f.Name] {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			return fmt.Errorf("%s cannot be used with -remote", strings.Join(local, ", "))
		}
		return runRemote(ctx, *remote, *rPath, *sPath, *selfQ, *k, *quiet, *report, *traceID, stdout, stderr)
	}

	if *rPath == "" && *rPage == "" {
		return fmt.Errorf("-r or -r-pagefile is required")
	}
	if *sPath == "" && *sPage == "" && !*selfQ {
		return fmt.Errorf("either -s, -s-pagefile or -self is required")
	}

	qcfg := ann.QueryConfig{}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		traceFile = f
		defer traceFile.Close()
		qcfg.TraceOut = traceFile
	}
	if *report {
		qcfg.OnReport = func(rep ann.QueryReport) {
			enc := json.NewEncoder(stderr)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
		}
	}
	stopProf, err := prof.Start(nil)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(stderr, "annquery: profile: %v\n", perr)
		}
	}()

	buildStart := time.Now()
	rIx, err := loadIndex(*rPath, *rPage)
	if err != nil {
		return err
	}
	defer rIx.Close()
	sIx := rIx
	sameSource := *selfQ && *sPath == "" && *sPage == "" ||
		(*sPath != "" && *sPath == *rPath) || (*sPage != "" && *sPage == *rPage)
	if !sameSource {
		sIx, err = loadIndex(*sPath, *sPage)
		if err != nil {
			return err
		}
		defer sIx.Close()
	}
	buildTime := time.Since(buildStart)

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	queryStart := time.Now()
	count := 0
	emit := func(res ann.Result) error {
		count++
		if *quiet {
			return nil
		}
		printResult(w, res)
		return nil
	}
	if err := ann.Join(ctx, rIx, sIx, *k, *selfQ && sIx == rIx, qcfg, emit); err != nil {
		return err
	}
	queryTime := time.Since(queryStart)
	fmt.Fprintf(stderr, "annquery: %d results, index build %v, query %v (k=%d)\n",
		count, buildTime.Round(time.Millisecond), queryTime.Round(time.Millisecond), *k)
	return nil
}

// loadIndex resolves one side of the query: reopen a persisted page
// file (pagePath only), build in memory (dataPath only), or build
// file-backed and persist (both).
func loadIndex(dataPath, pagePath string) (*ann.Index, error) {
	if dataPath == "" {
		return ann.OpenIndex(pagePath, ann.IndexConfig{})
	}
	raw, err := datagen.ReadFile(dataPath)
	if err != nil {
		return nil, err
	}
	pts := make([]ann.Point, len(raw))
	for i, p := range raw {
		pts[i] = ann.Point(p)
	}
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{PageFile: pagePath}) // no page file: in memory
	if err != nil {
		return nil, err
	}
	if pagePath != "" {
		if err := ix.Flush(); err != nil {
			ix.Close()
			return nil, err
		}
	}
	return ix, nil
}

// runRemote routes the join through a served catalog via ann/client.
// With report, the server's QueryReport travels back on the stream's
// end frame and prints as JSON to stderr — the remote analogue of the
// local -report path.
func runRemote(ctx context.Context, addr, rName, sName string, selfQ bool, k int, quiet, report bool, traceID string, stdout, stderr io.Writer) error {
	if rName == "" {
		return fmt.Errorf("-r (catalog index name) is required with -remote")
	}
	if sName == "" && !selfQ {
		return fmt.Errorf("either -s or -self is required with -remote")
	}
	cl, err := client.DialContext(ctx, addr)
	if err != nil {
		return fmt.Errorf("connecting to %s: %w", addr, err)
	}
	defer cl.Close()

	opts := client.JoinOptions{WantReport: report, TraceID: traceID}
	var st *client.JoinStream
	queryStart := time.Now()
	if selfQ {
		st, err = cl.SelfJoinWith(ctx, rName, k, opts)
	} else {
		st, err = cl.JoinWith(ctx, rName, sName, k, opts)
	}
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	count := 0
	for st.Next() {
		count++
		if !quiet {
			printResult(w, st.Result())
		}
	}
	if err := st.Err(); err != nil {
		return err
	}
	if rep := st.Report(); rep != nil {
		enc := json.NewEncoder(stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "annquery: %d results, query %v (remote %s, k=%d)\n",
		count, time.Since(queryStart).Round(time.Millisecond), addr, k)
	return nil
}

// printResult writes one per-point output line: the query id, then one
// "id:dist" column per neighbor.
func printResult(w io.Writer, res ann.Result) {
	fmt.Fprintf(w, "%d", res.ID)
	for _, nn := range res.Neighbors {
		fmt.Fprintf(w, "\t%d:%.6g", nn.ID, nn.Dist)
	}
	fmt.Fprintln(w)
}
