package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// smokePrograms is the short configuration: one small program per workload.
var smokePrograms = map[string][]string{
	"npb-cold":   {"IS"},
	"plds":       {"otter"},
	"fleet-warm": {"IS"},
}

func smokeRun(t *testing.T, workload string, trace bool, fx fixtures) *result {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     3,
		trace:    trace,
		workDir:  t.TempDir(),
		programs: smokePrograms[workload],
		fx:       fx,
	}
	res, err := run(context.Background(), cfg, io.Discard)
	if res == nil {
		t.Fatalf("%s: run did not start: %v", workload, err)
	}
	if err != nil {
		t.Logf("%s trace=%t: %v", workload, trace, err)
	}
	return res
}

func mustFixtures(t *testing.T) fixtures {
	t.Helper()
	fx, err := loadFixtures()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmokeEmitsEveryMetric runs each workload's short configuration untraced
// and traced, and checks the outputs are correct and every metric is emitted
// with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the analysis")
	}
	fx := mustFixtures(t)
	for _, workload := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := smokeRun(t, workload, trace, fx)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", workload, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", workload, trace, d.name, m, d.unit)
				}
			}
			if !trace && res.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s %v", workload, res.Metrics["wall_s"].Value)
			}
		}
	}
}

// TestCorruptFixtureFails flips one expected verdict per workload and
// checks the run reports the loop failed and the output incorrect.
func TestCorruptFixtureFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the analysis")
	}
	corrupt := map[string]string{
		"npb-cold":   fxNPBLoops,
		"plds":       fxPLDSRows,
		"fleet-warm": fxFleetLoops,
	}
	for _, workload := range workloadNames {
		fx := mustFixtures(t)
		file := corrupt[workload]
		unit := smokePrograms[workload][0] + "\t"
		lines := strings.Split(fx[file], "\n")
		found := false
		for i, l := range lines {
			if strings.HasPrefix(l, unit) {
				f := strings.Split(l, "\t")
				f[3] += "-corrupted"
				lines[i] = strings.Join(f, "\t")
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no %q row in %s", workload, unit, file)
		}
		fx[file] = strings.Join(lines, "\n")
		res := smokeRun(t, workload, false, fx)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted fixture passed: correct=%t failed=%d", workload, res.Correct, res.Failed)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}
