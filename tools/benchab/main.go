// Command benchab summarises a paired A/B run of the benchmark spine:
// given the result lines tools/bench-ab.sh collected from side A and side
// B — line i of each file is pair i — it prints, per end-to-end metric,
// both medians, the ratio of the medians, A's quartile distance (the
// run-to-run spread a gain has to exceed) and in how many pairs B read
// better than A. It decides nothing: the rule for claiming a gain is in
// the choosing-metrics guide and the numbers here are what it asks for.
//
//	go run ./tools/benchab -spec BENCHMARK.json A.jsonl B.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the summary needs: which way each
// end-to-end metric is better, in the order the file lists them.
type spec struct {
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// resultLine is the last line a benchmark run prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// row is one metric's comparison.
type row struct {
	name, unit   string
	medA, medB   float64
	iqrA         float64
	wins, losses int // pairs in which B read better, worse (the rest tie)
	pairs        int
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's declaration, for each metric's better direction")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchab [-spec BENCHMARK.json] A.jsonl B.jsonl")
		os.Exit(2)
	}
	if err := run(*specPath, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(specPath, pathA, pathB string, out io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readLines(pathA)
	if err != nil {
		return err
	}
	b, err := readLines(pathB)
	if err != nil {
		return err
	}
	if len(a) != len(b) || len(a) == 0 {
		return fmt.Errorf("%s has %d result lines, %s has %d: want the same number of pairs, at least one", pathA, len(a), pathB, len(b))
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tA median\tB median\tB/A\tA quartiles apart\tB better\tB worse\t")
	for _, m := range sp.EndToEnd {
		r := compare(m.Name, m.Unit, m.Better == "higher", a, b)
		if r.pairs == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%.1f %%\t%d/%d\t%d/%d\t\n",
			r.name, r.unit, r.medA, r.medB, r.medB/r.medA, 100*r.iqrA/r.medA, r.wins, r.pairs, r.losses, r.pairs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for i, lines := range [][]resultLine{a, b} {
		attempted, failed, wrong := 0, 0, 0
		for _, l := range lines {
			attempted += l.Attempted
			failed += l.Failed
			if !l.Correct {
				wrong++
			}
		}
		fmt.Fprintf(out, "%c: %d of %d operations failed; the oracle rejected %d of %d runs\n", 'A'+i, failed, attempted, wrong, len(lines))
	}
	return nil
}

// readLines decodes one result line per non-empty line of the file.
func readLines(path string) ([]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []resultLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(lines)+1, err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// compare summarises one metric over the pairs in which both sides
// reported it.
func compare(name, unit string, higherBetter bool, a, b []resultLine) row {
	r := row{name: name, unit: unit}
	var va, vb []float64
	for i := range a {
		ma, okA := a[i].Metrics[name]
		mb, okB := b[i].Metrics[name]
		if !okA || !okB {
			continue
		}
		va, vb = append(va, ma.Value), append(vb, mb.Value)
		switch {
		case mb.Value == ma.Value:
		case (mb.Value > ma.Value) == higherBetter:
			r.wins++
		default:
			r.losses++
		}
	}
	r.pairs = len(va)
	if r.pairs == 0 {
		return r
	}
	sort.Float64s(va)
	sort.Float64s(vb)
	r.medA, r.medB = quantile(va, 0.5), quantile(vb, 0.5)
	r.iqrA = quantile(va, 0.75) - quantile(va, 0.25)
	return r
}

// quantile interpolates linearly between the order statistics of a
// sorted, non-empty sample.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
