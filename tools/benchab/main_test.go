package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func resultFile(t *testing.T, name string, runs [][2]float64) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&sb, `{"correct":true,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":%g,"unit":"1/s"},"knn_p50_ms":{"value":%g,"unit":"ms"}}}`+"\n", r[0], r[1])
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareDirections holds the sign count to each metric's better
// direction: a higher rate and a lower latency are both wins for B.
func TestCompareDirections(t *testing.T) {
	a := resultFile(t, "A.jsonl", [][2]float64{{100, 0.10}, {110, 0.12}, {90, 0.11}, {100, 0.10}})
	b := resultFile(t, "B.jsonl", [][2]float64{{120, 0.08}, {100, 0.06}, {130, 0.07}, {100, 0.10}})
	la, err := readLines(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := readLines(b)
	if err != nil {
		t.Fatal(err)
	}

	ops := compare("ops_per_s", "1/s", true, la, lb)
	if ops.pairs != 4 || ops.wins != 2 || ops.losses != 1 {
		t.Errorf("ops_per_s: %d wins, %d losses of %d pairs; want 2, 1 of 4 (one tie)", ops.wins, ops.losses, ops.pairs)
	}
	if ops.medA != 100 || ops.medB != 110 {
		t.Errorf("ops_per_s medians %g, %g; want 100, 110", ops.medA, ops.medB)
	}
	if ops.iqrA != 5 {
		t.Errorf("ops_per_s: A's quartiles %g apart, want 5", ops.iqrA)
	}
	knn := compare("knn_p50_ms", "ms", false, la, lb)
	if knn.wins != 3 || knn.losses != 0 {
		t.Errorf("knn_p50_ms: %d wins, %d losses; want 3, 0", knn.wins, knn.losses)
	}
	if missing := compare("batch_p50_ms", "ms", false, la, lb); missing.pairs != 0 {
		t.Errorf("a metric neither side reported has %d pairs", missing.pairs)
	}
}

// TestRunAgainstSpec reads the repository's own BENCHMARK.json and
// refuses sides of unequal length.
func TestRunAgainstSpec(t *testing.T) {
	spec := filepath.Join("..", "..", "BENCHMARK.json")
	a := resultFile(t, "A.jsonl", [][2]float64{{100, 0.10}, {110, 0.12}})
	b := resultFile(t, "B.jsonl", [][2]float64{{120, 0.08}, {100, 0.06}})
	var out strings.Builder
	if err := run(spec, a, b, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ops_per_s", "knn_p50_ms", "1/2", "A: 0 of 20 operations failed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "join_cost_s") {
		t.Errorf("summary lists a metric no run reported:\n%s", out.String())
	}
	short := resultFile(t, "short.jsonl", [][2]float64{{1, 1}})
	if err := run(spec, a, short, &out); err == nil {
		t.Error("sides of 2 and 1 result lines were accepted as pairs")
	}
}
