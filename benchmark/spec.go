package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric of BENCHMARK.json: the name a later issue
// cites, its unit, the direction that counts as better, and (end-to-end
// only) the share of the parent's median by which it may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reports from. The
// file is the only place the metric lists, units, bounds, the run length
// and the reason for each workload are written down; README.md says which
// end-to-end metric each per-layer one is expected to move.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// spec and units are filled once, by loadSpec, before anything runs.
var (
	spec  benchSpec
	units map[string]string
)

// loadSpec reads BENCHMARK.json (at the root of the checkout the program
// is run from) and checks that it names the workloads this program has.
func loadSpec(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s names %d workloads, the program has %d", path, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, workloads[i].name)
		}
	}
	units = map[string]string{}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, s := range list {
			units[s.Name] = s.Unit
		}
	}
	return nil
}
