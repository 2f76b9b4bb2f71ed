package bench

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"allnn/internal/obs"
)

// tinyConfig runs experiments at a cardinality small enough for unit
// tests while still exercising every code path.
func tinyConfig(out *bytes.Buffer) Config {
	return Config{
		Scale:       0.004, // a few thousand points per dataset
		PageLatency: time.Millisecond,
		PoolBytes:   512 * 1024,
		Seed:        1,
		Out:         out,
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := e.Run(tinyConfig(&out)); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if out.Len() == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig3a"); !ok {
		t.Fatal("fig3a not registered")
	}
	if _, ok := Find("nonsense"); ok {
		t.Fatal("Find accepted an unknown name")
	}
}

// TestPaperShapes holds the figure runners to the shapes of the paper's
// Figs 3 to 6 in its own cost model, page transfers (the page-io column):
// the rows asserted on are the rows the figures print. Page transfers are
// deterministic (serial engine, fixed seed, one pool), so the
// inequalities are exact. RBA against GORDER is left out: their order
// flips with the scale (GORDER reads fewer pages than RBA at 0.01 and
// 0.02, more at 0.05).
//
// Figs 4 and 5 run at scale 0.02 behind 26 frames, which keeps scale
// 0.05's ratio of pool to data: with the full 512 KB, MBA's index fits
// the pool at 0.02 and a row proves nothing. Fig 6 does not scale down
// (at 0.02 MBA reads fewer pages at every k), so it runs at 0.05 with
// the 512 KB pool, at the two ends of its k range only.
func TestPaperShapes(t *testing.T) {
	cfg := Config{Scale: 0.01, Out: io.Discard}
	small := Config{Scale: 0.02, PoolBytes: 212992, Out: io.Discard}

	t.Run("fig3a", func(t *testing.T) {
		rows := figRows(t, RunFig3a, cfg,
			"BNN MAXMAXDIST", "BNN NXNDIST",
			"RBA MAXMAXDIST", "RBA NXNDIST",
			"MBA MAXMAXDIST", "MBA NXNDIST",
			"GORDER")
		mba := rows["MBA NXNDIST"].IOCount
		for _, other := range []string{"RBA NXNDIST", "BNN NXNDIST", "GORDER"} {
			if mba >= rows[other].IOCount {
				t.Errorf("MBA NXNDIST moves %d pages, want fewer than %s's %d", mba, other, rows[other].IOCount)
			}
		}
		// D1's direction: the tighter metric never queues more.
		for _, algo := range []string{"MBA", "RBA"} {
			nxn, maxmax := rows[algo+" NXNDIST"].Engine.Enqueued, rows[algo+" MAXMAXDIST"].Engine.Enqueued
			if nxn == 0 || nxn > maxmax {
				t.Errorf("%s enqueues %d under NXNDIST, want at most MAXMAXDIST's %d", algo, nxn, maxmax)
			}
		}
	})

	t.Run("fig3b", func(t *testing.T) {
		pools := []string{"512KB", "1024KB", "4096KB", "8192KB"}
		var names []string
		for _, p := range pools {
			names = append(names, "MBA "+p, "GORDER "+p)
		}
		pages := pageIO(t, RunFig3b, cfg, names...)
		for i, p := range pools {
			mba, gorder := pages["MBA "+p], pages["GORDER "+p]
			if mba > gorder {
				t.Errorf("at %s MBA moves %d pages, more than GORDER's %d", p, mba, gorder)
			}
			if i > 0 && mba > pages["MBA "+pools[i-1]] {
				t.Errorf("MBA's page transfers rise from %d at %s to %d at %s",
					pages["MBA "+pools[i-1]], pools[i-1], mba, p)
			}
		}
		// The index fits in a 4 MB pool at this scale: a larger pool has
		// nothing left to save.
		if a, b := pages["MBA 4096KB"], pages["MBA 8192KB"]; a != b {
			t.Errorf("MBA moves %d pages at 4096KB and %d at 8192KB, want level", a, b)
		}
	})

	t.Run("fig4", func(t *testing.T) {
		pages := pageIO(t, RunFig4, small, "MBA 2D", "GORDER 2D", "MBA 4D", "GORDER 4D", "MBA 6D", "GORDER 6D")
		atMostGorder(t, pages, "2D", "4D", "6D")
	})

	t.Run("fig5", func(t *testing.T) {
		pages := pageIO(t, RunFig5, small, sweepRows(paperKs)...)
		atMostGorder(t, pages, "k=10", "k=20", "k=30", "k=40", "k=50")
	})

	t.Run("fig6", func(t *testing.T) {
		ends := []int{10, 50}
		fig6 := func(c Config) ([]Measurement, error) {
			return runAkNNSweep(c, "Figure 6: AkNN on FC", fcData(c.withDefaults()), ends)
		}
		pages := pageIO(t, fig6, Config{Scale: 0.05, Out: io.Discard}, sweepRows(ends)...)
		if mba, gorder := pages["MBA k=10"], pages["GORDER k=10"]; mba >= gorder {
			t.Errorf("at k=10 MBA moves %d pages, want fewer than GORDER's %d", mba, gorder)
		}
		// D4's I/O half: within 1 % of GORDER at k=50.
		if mba, gorder := pages["MBA k=50"], pages["GORDER k=50"]; mba*100 > gorder*101 {
			t.Errorf("at k=50 MBA moves %d pages, more than 1.01 x GORDER's %d", mba, gorder)
		}
	})
}

// sweepRows names the rows an AkNN sweep over ks prints.
func sweepRows(ks []int) []string {
	var names []string
	for _, k := range ks {
		names = append(names, fmt.Sprintf("MBA k=%d", k), fmt.Sprintf("GORDER k=%d", k))
	}
	return names
}

// atMostGorder fails every label whose MBA row moves more pages than its
// GORDER row.
func atMostGorder(t *testing.T, pages map[string]uint64, labels ...string) {
	t.Helper()
	for _, l := range labels {
		if mba, gorder := pages["MBA "+l], pages["GORDER "+l]; mba > gorder {
			t.Errorf("at %s MBA moves %d pages, more than GORDER's %d", l, mba, gorder)
		}
	}
}

// pageIO is figRows' page-io column.
func pageIO(t *testing.T, run func(Config) ([]Measurement, error), cfg Config, names ...string) map[string]uint64 {
	t.Helper()
	pages := make(map[string]uint64, len(names))
	for name, m := range figRows(t, run, cfg, names...) {
		pages[name] = m.IOCount
	}
	return pages
}

// figRows runs one figure and returns its rows by name, failing unless
// the figure printed exactly the rows named, in order.
func figRows(t *testing.T, run func(Config) ([]Measurement, error), cfg Config, names ...string) map[string]Measurement {
	t.Helper()
	ms, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ms))
	rows := make(map[string]Measurement, len(ms))
	for i, m := range ms {
		got[i] = m.Name
		rows[m.Name] = m
	}
	if !slices.Equal(got, names) {
		t.Fatalf("rows %q, want %q", got, names)
	}
	for _, m := range ms {
		t.Logf("%-16s %6d pages", m.Name, m.IOCount)
	}
	return rows
}

// TestDeclareMetricFamilies checks that a fresh registry lists a name
// of every stats family the experiments publish before any experiment
// has run.
func TestDeclareMetricFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	DeclareMetricFamilies(reg)
	s := reg.Snapshot()
	for _, name := range []string{
		"engine.distance_calcs", "pool.misses", "cache.hits",
		"gorder.blocks_read", "bnn.distance_calcs",
	} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("metric family %q not declared in the registry", name)
		}
	}
}

func TestAkNNSweepCoversK(t *testing.T) {
	var out bytes.Buffer
	if _, err := RunFig5(tinyConfig(&out)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"k=10", "k=20", "k=30", "k=40", "k=50"} {
		if !strings.Contains(text, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != 0.05 || cfg.PoolBytes != 512*1024 || cfg.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if got := cfg.scaled(500_000); got != 25_000 {
		t.Fatalf("scaled(500K) = %d", got)
	}
	small := Config{Scale: 1e-9}.withDefaults()
	if got := small.scaled(500_000); got != 100 {
		t.Fatalf("scaled floor = %d, want 100", got)
	}
}

func TestMeasurementTotal(t *testing.T) {
	m := Measurement{CPU: time.Second, IOTime: 2 * time.Second}
	if m.Total() != 3*time.Second {
		t.Fatalf("Total = %v", m.Total())
	}
}

func TestScanPages(t *testing.T) {
	// 2-D points: 24 bytes each, 8188 usable bytes per page => 341/page.
	if got := scanPages(341, 2); got != 1 {
		t.Fatalf("scanPages(341, 2) = %d", got)
	}
	if got := scanPages(342, 2); got != 2 {
		t.Fatalf("scanPages(342, 2) = %d", got)
	}
}

func TestSpeedupFormat(t *testing.T) {
	slow := Measurement{CPU: 10 * time.Second}
	fast := Measurement{CPU: 2 * time.Second}
	if got := speedup(slow, fast); got != "5.0x" {
		t.Fatalf("speedup = %q", got)
	}
}
