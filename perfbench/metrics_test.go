package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload lists of this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestReportMetricsExact(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	r := newReport()
	r.set("a", 1)
	if _, err := r.metrics(defs); err == nil {
		t.Error("a missing metric was not reported")
	}
	r.set("b", 2)
	m, err := r.metrics(defs)
	if err != nil || m["a"].Value != 1 || m["b"].Unit != "s" {
		t.Errorf("metrics = %v, %v", m, err)
	}
	r.set("c", 3)
	if _, err := r.metrics(defs); err == nil {
		t.Error("a stray metric was not reported")
	}
}
