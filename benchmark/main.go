// Command benchmark is the repository's benchmark spine: a
// single-process load generator that brings the stack up in-process —
// ann index, wire server, router, clients over loopback TCP — drives
// five workloads through it, checks the answers against brute force,
// and prints every metric by name. It measures from outside only: it
// calls the packages' public functions and reads the counters they
// already export. BENCHMARK.json at the repository root is its contract
// and the list it reports from; README.md beside this file says what
// each number means.
//
//	bash benchmark/run.sh --workload serve_read --seed 1 --trace 0
//	bash benchmark/run.sh --workload all --seed 1            # every workload, both runs
//	bash benchmark/run.sh --aa --seed 1                      # A/A noise check against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	// The program runs from the root of a checkout; run.sh sees to it.
	if err := loadSpec("BENCHMARK.json"); err != nil {
		fatal(err)
	}
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", float64(spec.RunSeconds), "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		aa      = flag.Bool("aa", false, "run every workload in two sets with -seed and one with seed+1 and hold the gaps against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	if *name == "all" {
		for _, w := range workloads {
			for _, traced := range []int{0, 1} {
				if _, err := runChild(w.name, *seed, *seconds, traced); err != nil {
					fatal(err)
				}
			}
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	scratch := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	rep, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, scale: 1, scratch: scratch, outDir: filepath.Join("benchmark", "out")})
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultLine is the last line of a run's standard output, the form the
// driver reads.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable table and, last, the result
// line.
func printReport(out io.Writer, rep *report) {
	kind, specs := "untraced run, end-to-end metrics", spec.EndToEnd
	if rep.Traced {
		kind, specs = "traced run, per-layer metrics", spec.PerLayer
	}
	p := rep.Provenance
	fmt.Fprintf(out, "workload %s  (%s)  seed %d\n", rep.Workload, kind, p.Seed)
	fmt.Fprintf(out, "host: %d CPUs, GOMAXPROCS=%d, %s, commit %s, scale %g\n", p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Scale)
	if p.Degraded {
		fmt.Fprintln(out, "DEGRADED: fewer than 2 CPUs; the workloads are sized for 2 and these numbers are not comparable")
	}
	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]lineValue{}}
	for _, ms := range specs {
		s := rep.Metrics[ms.Name]
		note := ""
		if rep.Traced && s.N == 0 {
			note = "  (layer bypassed)"
		}
		fmt.Fprintf(out, "  %-36s %16.6g %-6s n=%d%s\n", ms.Name, s.Value, s.Unit, s.N, note)
		line.Metrics[ms.Name] = lineValue{s.Value, s.Unit}
	}
	for _, c := range rep.Checks {
		verdict := "pass"
		if c.Wrong > 0 {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "  check %-44s %s  (%d checked, %d wrong)\n", c.Name, verdict, c.Checked, c.Wrong)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(out, "  note:", n)
	}
	fmt.Fprintf(out, "  fail_share %g  (%d failed of %d attempted)\n", rep.failShare(), rep.Failed, rep.Attempted)
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(data))
}

// runChild runs one workload in a process of its own — peak memory is a
// per-process high-water mark, so runs must not share one — passes its
// output through, and returns its result line.
func runChild(workload string, seed int64, seconds float64, traced int) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, traced, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	line := new(resultLine)
	return line, json.Unmarshal(lines[len(lines)-1], line)
}

// exactCounts are the per-layer metrics that must repeat bit for bit
// between two ann_tac_io runs of one seed: the workload is serial, so
// the engine and the pool do exactly the same work.
var exactCounts = []string{
	"core.distance_calcs_per_row", "core.enqueued_per_row", "core.pruned_on_probe_per_row",
	"core.nodes_expanded_per_row", "core.kernel_pairs_per_row", "storage.page_reads_per_row",
}

// aaSetRuns is how many runs make one set of the A/A check. The sets'
// runs alternate, so a slow spell on a shared host lands on all three
// sets and moves none of their medians by itself.
const aaSetRuns = 3

// runAA is the A/A check: every workload gets three sets of untraced
// runs — two with one seed, one with the next — and for each end-to-end
// metric the gap between the sets' medians, as a share of the first, is
// held against the metric's bound. A traced pair of the first seed
// follows; its exact counts must agree on the serial workload. Every
// run's table, then the table of gaps, goes to standard output. Returns
// the process's exit code.
func runAA(seed int64, seconds float64) int {
	type row struct {
		workload, metric             string
		a, sameSeed, nextSeed, bound float64
		breach                       bool
	}
	var rows []row
	breaches, failed := 0, 0
	gap := func(a, b float64) float64 { return math.Abs(ratio(b-a, a)) }
	for _, w := range workloads {
		seeds := [3]int64{seed, seed, seed + 1}
		var sets [3]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for rep := 0; rep < aaSetRuns; rep++ {
			for i, s := range seeds {
				r, err := runChild(w.name, s, seconds, 0)
				if err != nil {
					fatal(err)
				}
				failed += r.Failed
				for name, v := range r.Metrics {
					sets[i][name] = append(sets[i][name], v.Value)
				}
			}
		}
		for _, ms := range spec.EndToEnd {
			a := median(sets[0][ms.Name])
			r := row{w.name, ms.Name, a, gap(a, median(sets[1][ms.Name])), gap(a, median(sets[2][ms.Name])), ms.Bound, false}
			r.breach = r.sameSeed > r.bound || r.nextSeed > r.bound
			if r.breach {
				breaches++
			}
			rows = append(rows, r)
		}
		var traced [2]*resultLine
		for i := range traced {
			r, err := runChild(w.name, seed, seconds, 1)
			if err != nil {
				fatal(err)
			}
			traced[i] = r
			failed += r.Failed
		}
		if w.join.Parallelism == 1 {
			for _, name := range exactCounts {
				a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
				r := row{w.name, name, a, gap(a, b), 0, 0, a != b}
				if r.breach {
					breaches++
				}
				rows = append(rows, r)
			}
		}
	}
	fmt.Printf("\nA/A: gap between the medians of two sets of %d runs of seed %d, and of a set of seed %d, as a share of the first set's\n", aaSetRuns, seed, seed+1)
	fmt.Printf("%-12s %-30s %14s %10s %10s %7s\n", "workload", "metric", "first set", "same seed", "next seed", "bound")
	for _, r := range rows {
		mark := ""
		if r.breach {
			mark = "  BREACH"
		}
		fmt.Printf("%-12s %-30s %14.6g %9.2f%% %9.2f%% %6.0f%%%s\n", r.workload, r.metric, r.a, 100*r.sameSeed, 100*r.nextSeed, 100*r.bound, mark)
	}
	fmt.Printf("%d breaches, %d failed operations or checks\n", breaches, failed)
	if breaches > 0 || failed > 0 {
		return 1
	}
	return 0
}
