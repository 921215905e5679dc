package main

import (
	"math"
	"reflect"
	"testing"
)

func TestGoldenHasTheBenchmarkedRows(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig9Points {
		if _, ok := g["fig9"][p.label]; !ok {
			t.Errorf("golden fig9 lacks %q", p.label)
		}
	}
	if got := len(subset(g["fig6"], fig6Labels...)); got != len(fig6Labels) {
		t.Errorf("golden fig6 has %d of the %d served rows", got, len(fig6Labels))
	}
	sims := map[string]bool{}
	for l := range g["fig10"] {
		sims[fig10Sim(l)] = true
	}
	if len(sims) != 15 {
		t.Errorf("golden fig10 rows come from %d simulations, want 15 (5 mixes x 3 systems)", len(sims))
	}
}

func TestDiffRowsFlagsPerturbedRow(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	want := g["fig9"]
	got := rows{}
	for l, v := range want {
		got[l] = v
	}
	if d := diffRows(got, want); len(d) != 0 {
		t.Fatalf("identical rows reported as different: %v", d)
	}

	// The smallest possible change to one value is a mismatch.
	got["M3x find 2"] = math.Nextafter(got["M3x find 2"], math.Inf(1))
	if d := diffRows(got, want); !reflect.DeepEqual(d, []string{"M3x find 2"}) {
		t.Errorf("perturbed row: diff = %v, want [M3x find 2]", d)
	}

	// A missing row and an unexpected one are both mismatches.
	got["M3x find 2"] = want["M3x find 2"]
	delete(got, "M3v find 1")
	got["M3v find 3"] = 1
	if d := diffRows(got, want); !reflect.DeepEqual(d, []string{"M3v find 1", "M3v find 3"}) {
		t.Errorf("missing+extra rows: diff = %v", d)
	}
}

func TestFig10SimGroupsRowsBySimulation(t *testing.T) {
	for label, sim := range map[string]string{
		"scan Linux system":        "scan Linux",
		"scan Linux total":         "scan Linux",
		"read M3v isolated total":  "read M3v isolated",
		"update M3v shared system": "update M3v shared",
	} {
		if got := fig10Sim(label); got != sim {
			t.Errorf("fig10Sim(%q) = %q, want %q", label, got, sim)
		}
	}
}

func TestPaperErrPct(t *testing.T) {
	paper := rows{"a": 100, "b": 50}
	got := rows{"a": 110, "b": 40, "c": 1} // +10%, -20%; c has no paper value
	if e := paperErrPct(got, paper); math.Abs(e-15) > 1e-12 {
		t.Errorf("paperErrPct = %v, want 15", e)
	}
}
