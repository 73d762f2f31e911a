package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogMatchesBenchmarkFile holds BENCHMARK.json and metrics.json
// to the same workloads and metrics, in the same order, so what the
// program reports is exactly what the benchmark declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(cat.Workloads) || len(b.Workloads) != len(workloads) {
		t.Fatalf("workloads: %d in BENCHMARK.json, %d in metrics.json, %d in the program",
			len(b.Workloads), len(cat.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != cat.Workloads[i].Name || w.Why != cat.Workloads[i].Why || w.Name != workloads[i].name {
			t.Errorf("workload %d differs between BENCHMARK.json, metrics.json and the program", i)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(cat.EndToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in metrics.json", len(b.EndToEnd), len(cat.EndToEnd))
	}
	maxBound, setupBound := 0.0, -1.0
	for i, m := range b.EndToEnd {
		if m.metricDef != cat.EndToEnd[i] {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in metrics.json", i, m.metricDef, cat.EndToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest bound %v", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(cat.PerLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in metrics.json", len(b.PerLayer), len(cat.PerLayer))
	}
	for i, m := range b.PerLayer {
		if m != cat.PerLayer[i] {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in metrics.json", i, m, cat.PerLayer[i])
		}
	}
}

// TestCatalogNames checks every name and unit against the benchmark
// file's rules, and that each layer metric's targets name real metrics
// and workloads.
func TestCatalogNames(t *testing.T) {
	var cat struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []struct {
			metricDef
			Scope     string             `json:"scope"`
			Moves     []string           `json:"moves"`
			Predicted map[string]float64 `json:"predicted"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(catalogJSON, &cat); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(name, unit, better string) {
		if !validName(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: invalid unit %q", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better must be lower or higher, got %q", name, better)
		}
	}
	wl := map[string]bool{}
	for _, w := range cat.Workloads {
		use(w.Name, "", "")
		wl[w.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range cat.EndToEnd {
		use(m.Name, m.Unit, m.Better)
		e2e[m.Name] = true
	}
	scopes := map[string]bool{"ladder": true, "replica": true, "process": true, "client": true, "runtime": true, "bench": true}
	for _, m := range cat.PerLayer {
		use(m.Name, m.Unit, m.Better)
		if !scopes[m.Scope] {
			t.Errorf("%s: unknown scope %q", m.Name, m.Scope)
		}
		if len(m.Moves) == 0 {
			t.Errorf("%s: no target end-to-end metric", m.Name)
		}
		for _, mv := range m.Moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] || !wl[workload] {
				t.Errorf("%s: target %q is not metric@workload", m.Name, mv)
			}
		}
		for w := range m.Predicted {
			if !wl[w] {
				t.Errorf("%s: prediction for unknown workload %q", m.Name, w)
			}
		}
	}
}
