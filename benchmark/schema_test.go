package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared mirrors BENCHMARK.json at the root of the repo.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// sameMetrics wants the program's list and the declared one equal in names,
// units and order: none missing, none undeclared.
func sameMetrics(t *testing.T, kind string, have []metricDef, want []declaredMetric) {
	t.Helper()
	if len(have) != len(want) {
		t.Errorf("%s: the program emits %d metrics, BENCHMARK.json declares %d", kind, len(have), len(want))
	}
	seen := make(map[string]bool)
	for i, h := range have {
		if !nameRE.MatchString(h.name) || !unitRE.MatchString(h.unit) {
			t.Errorf("%s: %q with unit %q is outside the contract's alphabet", kind, h.name, h.unit)
		}
		if seen[h.name] {
			t.Errorf("%s: %q is emitted twice", kind, h.name)
		}
		seen[h.name] = true
		if i >= len(want) {
			t.Errorf("%s: %q is emitted but not declared", kind, h.name)
			continue
		}
		if w := want[i]; w.Name != h.name || w.Unit != h.unit {
			t.Errorf("%s #%d: the program emits %s in %s, BENCHMARK.json declares %s in %s", kind, i, h.name, h.unit, w.Name, w.Unit)
		}
	}
}

func TestDeclaredMetricsMatchTheProgram(t *testing.T) {
	d := readDeclared(t)
	sameMetrics(t, "end_to_end", endToEnd, d.EndToEnd)
	sameMetrics(t, "per_layer", perLayer, d.PerLayer)

	setup := false
	for i, m := range d.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		if i >= len(endToEnd) {
			continue // sameMetrics has reported it
		}
		if have := endToEnd[i]; have.bound != *m.Bound {
			t.Errorf("%s: -selfcheck holds it to %v, BENCHMARK.json to %v", m.Name, have.bound, *m.Bound)
		}
		if want := map[bool]string{true: "higher", false: "lower"}[endToEnd[i].higherBetter]; m.Better != want {
			t.Errorf("%s: declared better=%s, -selfcheck treats it as %s", m.Name, m.Better, want)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range d.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
	}
}

func TestDeclaredWorkloadsMatchTheProgram(t *testing.T) {
	d := readDeclared(t)
	have := workloads()
	if len(d.Workloads) != len(have) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %v", len(d.Workloads), have)
	}
	for i, w := range d.Workloads {
		if w.Name != have[i] {
			t.Errorf("workload #%d: declared %q, the program runs %q", i, w.Name, have[i])
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", d.RunSeconds)
	}
}
