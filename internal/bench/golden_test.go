package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// goldenFile is the committed metric snapshot of the figure drivers. The
// simulator is deterministic, so every row must match the snapshot exactly;
// any intentional model change regenerates it with
//
//	M3V_UPDATE_GOLDEN=1 go test ./internal/bench -run TestGoldenFigures
const goldenFile = "testdata/golden.json"

// goldenExperiments are the experiment drivers pinned by the snapshot.
var goldenExperiments = []string{"fig6", "fig7", "fig8", "fig9", "fig10", "voice", "ablation"}

// goldenParams runs fig9 on a truncated tile series to keep the test fast;
// the fixed-topology figures ignore it.
var goldenParams = Params{Tiles: []int{1, 2}}

// collectGolden runs the pinned drivers and flattens their tables.
func collectGolden(t *testing.T) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, id := range goldenExperiments {
		e, _ := Lookup(id)
		r, err := e.Run(goldenParams, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkIdentity(t, e, r)
		rows := make(map[string]float64, len(r.Rows))
		for _, m := range r.Rows {
			rows[m.Label] = m.Value
		}
		out[id] = rows
	}
	return out
}

// TestGoldenFigures pins every row of the goldenExperiments tables to the
// committed snapshot: the simulation is deterministic, so any drift is a real
// model change and must be reviewed (and the snapshot regenerated) explicitly.
// Every table must also carry its registry entry's ID and title.
func TestGoldenFigures(t *testing.T) {
	got := collectGolden(t)

	if os.Getenv("M3V_UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(goldenFile, data, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("golden snapshot regenerated: %s", goldenFile)
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden (regenerate with M3V_UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	for id, wantRows := range want {
		gotRows, ok := got[id]
		if !ok {
			t.Errorf("%s: experiment missing from run", id)
			continue
		}
		for label, w := range wantRows {
			g, ok := gotRows[label]
			if !ok {
				t.Errorf("%s: row %q missing", id, label)
				continue
			}
			// Exact float equality: same binary, same schedule, same bits.
			// NaN never appears in the tables; guard anyway.
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Errorf("%s: %q = %v, golden %v", id, label, g, w)
			}
		}
		for label := range gotRows {
			if _, ok := wantRows[label]; !ok {
				t.Errorf("%s: new row %q not in golden snapshot", id, label)
			}
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: experiment not in golden snapshot", id)
		}
	}
}
