package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinyRuns runs every workload of BENCHMARK.json at a tiny size,
// untraced and traced: each must finish with no failed operation and a
// passing oracle, and print exactly the metrics, with the units, that
// BENCHMARK.json declares.
func TestTinyRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []int{0, 1} {
			want := map[string]string{}
			if traced == 1 {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(options{workload: w.Name, seed: 7, seconds: 1, trace: traced, work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace %d): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %d): correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok {
					t.Errorf("%s (trace %d) prints %s, which BENCHMARK.json does not declare", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s (trace %d): %s in %s, BENCHMARK.json says %s", w.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s (trace %d) does not print %s", w.Name, traced, name)
				}
			}
			sort.Strings(got)
			t.Logf("%s (trace %d): %d metrics", w.Name, traced, len(got))
		}
	}
}

// TestCoveredBy pins the interval union used for self times.
func TestCoveredBy(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := coveredBy(8, 45, ivs); got != 7+10+5 {
		t.Fatalf("coveredBy = %d, want 22", got)
	}
	if got := coveredBy(16, 19, ivs); got != 0 {
		t.Fatalf("coveredBy over a gap = %d, want 0", got)
	}
}
