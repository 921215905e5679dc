package walltime_test

import (
	"go/ast"
	"strings"
	"testing"

	"m3v/internal/analysis"
	"m3v/internal/analysis/analysistest"
	"m3v/internal/analysis/load"
	"m3v/internal/analysis/suite"
	"m3v/internal/analysis/walltime"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", walltime.Analyzer,
		"m3v/internal/sim", // flagged reads + seeded-rand allowance + _test.go exemption
		"m3v/cmd/m3vbench", // cmd/ carve-out
	)
}

// TestBenchTimestampStaysExempt pins the carve-out on a real harness
// binary: cmd/m3vload reads the wall clock to time its requests and the
// whole load run (main.go), and walltime must keep accepting that. The test fails if the binary stops using the wall clock (the pin
// is then meaningless and should move) or if the analyzer starts flagging
// it.
func TestBenchTimestampStaysExempt(t *testing.T) {
	units, err := load.Packages("../../..", "./cmd/m3vload")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("want 1 package, got %d", len(units))
	}
	u := units[0]

	wallReads := 0
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" &&
					(sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					wallReads++
				}
			}
			return true
		})
	}
	if wallReads == 0 {
		t.Fatal("cmd/m3vload no longer reads the wall clock; relocate this exemption pin")
	}

	findings, err := analysis.Run([]*analysis.Unit{u}, suite.Analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		if f.Analyzer == walltime.Analyzer.Name {
			t.Errorf("walltime must exempt cmd/m3vload: %s", f)
		}
	}
	if !strings.HasPrefix(u.Path, "m3v/cmd/") || !analysis.IsCmd(u.Path) {
		t.Errorf("exemption is keyed on the cmd/ path segment; got %q", u.Path)
	}
}
