package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the contract in ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func declaredOf(defs []metricDef) []declared {
	out := make([]declared, len(defs))
	for i, d := range defs {
		out[i] = declared{d.name, d.unit, d.better, d.bound}
	}
	return out
}

// TestDeclarationsMatch holds the harness's vocabulary and BENCHMARK.json
// to each other: same workloads, same metrics, same units, directions and
// bounds, in the same order. No engine is started.
func TestDeclarationsMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name)
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, got, w.name, w.why)
		}
	}
	for _, tab := range []struct {
		what string
		file []declared
		defs []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		want := declaredOf(tab.defs)
		if len(tab.file) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", tab.what, len(tab.file), len(want))
		}
		for i, d := range want {
			check(d.Name)
			if tab.file[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", tab.what, i, tab.file[i], d)
			}
		}
	}
}

// TestDriversCoverTheirMetrics runs every layer driver for 1000
// iterations and checks that together they set exactly the per-layer
// metrics declared as driver-measured, each to a finite value.
func TestDriversCoverTheirMetrics(t *testing.T) {
	m := metricSet{}
	runDrivers(m, 1000, nil, 0)
	want := 0
	for _, d := range perLayer {
		if !d.driver {
			continue
		}
		want++
		v, ok := m[d.name]
		if !ok {
			t.Errorf("no driver set %s", d.name)
		} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
			t.Errorf("%s = %v", d.name, v.Value)
		}
	}
	if len(m) != want {
		t.Errorf("drivers set %d metrics, %d are declared as driver-measured", len(m), want)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}
