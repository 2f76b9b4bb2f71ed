// Command annbench regenerates the paper's evaluation tables and figures.
//
// Examples:
//
//	annbench -exp fig3a              # one experiment at the default scale
//	annbench -all -scale 0.1         # the full evaluation at 10% cardinality
//	annbench -exp fig3b -latency 2ms # different modeled disk latency
//	annbench -exp mba -trace out.json -json report.json
//	annbench -all -pprof-addr :9100 -cpuprofile cpu.pprof
//
// The -scale flag multiplies the paper's dataset cardinalities (500K-700K
// points); 1.0 reproduces the full sizes but takes correspondingly long.
// A progress heartbeat is printed to stderr after each measurement;
// -quiet suppresses it. -trace writes a Chrome trace-event JSON of the
// traced experiment ("mba"), loadable at https://ui.perfetto.dev;
// -pprof-addr serves the live metrics registry (plus /debug/pprof/)
// over HTTP while the experiments run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"allnn/internal/bench"
	"allnn/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annbench: ")
	var (
		exp       = flag.String("exp", "", "experiment to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiments and exit")
		scale     = flag.Float64("scale", 0.05, "fraction of the paper's dataset cardinalities")
		latency   = flag.Duration("latency", time.Millisecond, "modeled time per page transfer")
		pool      = flag.Int("pool", 512*1024, "buffer pool size in bytes (experiments that vary it ignore this)")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		jsonOut   = flag.String("json", "", "write a machine-readable summary here (mba experiment)")
		quiet     = flag.Bool("quiet", false, "suppress the per-measurement progress heartbeat on stderr")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON of the traced experiment here (mba experiment; open at ui.perfetto.dev)")
	)
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
		return
	}

	var reg *obs.Registry
	if prof.PprofAddr != "" {
		reg = obs.NewRegistry()
		bench.DeclareMetricFamilies(reg)
	}
	stopProf, err := prof.Start(reg)
	if err != nil {
		log.Fatal(err)
	}
	fail := func(format string, args ...any) {
		_ = stopProf()
		log.Fatalf(format, args...)
	}

	cfg := bench.Config{
		Scale:       *scale,
		PageLatency: *latency,
		PoolBytes:   *pool,
		Seed:        *seed,
		Out:         os.Stdout,
		JSONPath:    *jsonOut,
		TracePath:   *tracePath,
		Metrics:     reg,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	switch {
	case *all:
		for _, e := range bench.Experiments() {
			fmt.Printf("\n=== %s: %s ===\n", e.Name, e.Description)
			start := time.Now()
			if err := e.Run(cfg); err != nil {
				fail("%s: %v", e.Name, err)
			}
			fmt.Printf("(%s finished in %s)\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	case *exp != "":
		e, ok := bench.Find(*exp)
		if !ok {
			fail("unknown experiment %q (use -list)", *exp)
		}
		if err := e.Run(cfg); err != nil {
			fail("%v", err)
		}
	default:
		_ = stopProf()
		flag.Usage()
		os.Exit(2)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
}
