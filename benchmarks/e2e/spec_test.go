package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheProgram keeps the driver's contract file
// and the program's own tables from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, program has %+v", i, m, s)
		}
	}
	listed := map[string]string{}
	for _, m := range doc.PerLayer {
		listed[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		if unit, ok := listed[m.name]; !ok || unit != m.unit {
			t.Errorf("per-layer metric %s (%s): BENCHMARK.json has unit %q, listed=%v", m.name, m.unit, unit, ok)
		}
	}
	if len(listed) != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(listed), len(perLayer))
	}
}
