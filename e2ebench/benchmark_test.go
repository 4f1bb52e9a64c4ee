package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json declares the metrics a run prints; it must list exactly
// the ones this program reports, with the same units and directions, and
// every workload prepare knows.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		t.Helper()
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit, m.Better})
		}
		w = append(w, want...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics in BENCHMARK.json %v, program %v", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, program %v", names, workloadNames)
	}
}
