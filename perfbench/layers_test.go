package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics the
// command prints in step: same names, units and directions.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if g := (spec{got[i].Name, got[i].Unit, got[i].Better}); g != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndSpecs)
	check("per_layer", b.PerLayer, perLayerSpecs)
}

func TestEndToEndPrintsEverySpec(t *testing.T) {
	ps := []passStats{{passResult: passResult{attempted: 2, completed: 2, lat: []float64{1, 2}}, wall: 1, cpu: 1}}
	m := endToEnd([]float64{0.1}, ps)
	var got []string
	for name, v := range m {
		got = append(got, name+" "+v.Unit)
	}
	var want []string
	for _, s := range endToEndSpecs {
		want = append(want, s.name+" "+s.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("endToEnd metrics %v, specs %v", got, want)
	}
}

func TestSimCountsPrintEveryCountSpec(t *testing.T) {
	var c simCounts
	m := c.metrics(0)
	if len(m) != len(simCountSpecs) {
		t.Errorf("simCounts.metrics has %d entries, specs %d", len(m), len(simCountSpecs))
	}
	for _, s := range simCountSpecs {
		if v, ok := m[s.name]; !ok || v.Unit != s.unit {
			t.Errorf("simCounts.metrics %q = %+v, want unit %q", s.name, v, s.unit)
		}
	}
}

func TestParseTopGroupsByPackage(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 2.14s, 100% of 2.14s total
      flat  flat%   sum%        cum   cum%
     0.50s 50.00% 50.00%      0.60s 60.00%  runtime.chanrecv
     0.20s 20.00% 70.00%      0.30s 30.00%  m3v/internal/sim.(*wheelQueue).addSlot
     0.10s 10.00% 80.00%      0.10s 10.00%  runtime.mallocgc
     0.05s  5.00% 85.00%      0.05s  5.00%  gcWriteBarrier2
     0.05s  5.00% 90.00%      0.05s  5.00%  runtime.scanobject
     0.05s  5.00% 95.00%      0.05s  5.00%  m3v/internal/linuxos.(*Proc).Read
     0.05s  5.00%   100%      0.05s  5.00%  memeqbody (inline)
`)
	shares, top, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime": 55, "sim": 20, "alloc": 10, "gc": 10, "other": 5}
	if !reflect.DeepEqual(shares, want) {
		t.Errorf("shares = %v, want %v", shares, want)
	}
	if len(top) != 7 {
		t.Errorf("top has %d lines, want 7", len(top))
	}
	if _, _, err := parseTop([]byte("no rows\n")); err == nil {
		t.Error("parseTop accepted output without rows")
	}
}
