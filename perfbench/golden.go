package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// goldenPath is the committed metric snapshot of the figure drivers,
// relative to the repository root. The benchmark reads it and never writes
// it: the simulator is deterministic, so every row a pass produces must
// match it bit for bit.
const goldenPath = "internal/bench/testdata/golden.json"

// rows maps a result row's label to its value.
type rows map[string]float64

// loadGolden reads the snapshot: experiment id -> rows.
func loadGolden(root string) (map[string]rows, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	var g map[string]rows
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parse golden: %w", err)
	}
	return g, nil
}

// diffRows lists, in label order, the label of every row where got and want
// disagree: a value that differs (exact float comparison), a row missing
// from got, or a row want does not have.
func diffRows(got, want rows) []string {
	var out []string
	for label, w := range want {
		if g, ok := got[label]; !ok || g != w {
			out = append(out, label)
		}
	}
	for label := range got {
		if _, ok := want[label]; !ok {
			out = append(out, label)
		}
	}
	sort.Strings(out)
	return out
}

// describeDiff renders one label of a diffRows result for an error line.
func describeDiff(label string, got, want rows) string {
	g, gok := got[label]
	w, wok := want[label]
	switch {
	case !gok:
		return fmt.Sprintf("%q missing (want %v)", label, w)
	case !wok:
		return fmt.Sprintf("%q = %v unexpected", label, g)
	}
	return fmt.Sprintf("%q = %v, want %v", label, g, w)
}

// subset returns the rows of r whose labels are listed.
func subset(r rows, labels ...string) rows {
	out := make(rows, len(labels))
	for _, l := range labels {
		if v, ok := r[l]; ok {
			out[l] = v
		}
	}
	return out
}

// fig10Sim names the simulation a fig10 row comes from: the mix and the
// system, i.e. the label without its trailing " total" or " system". Each
// (mix, system) pair is one simulation, and a row mismatch fails it.
func fig10Sim(label string) string {
	for _, suffix := range []string{" total", " system"} {
		if s, ok := strings.CutSuffix(label, suffix); ok {
			return s
		}
	}
	return label
}
