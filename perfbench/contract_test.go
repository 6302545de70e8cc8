package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the workloads and metric tables this program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	same := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
