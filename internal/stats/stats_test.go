package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("a-much-longer-name", 10000.0)
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.50") {
		t.Errorf("row = %q", lines[2])
	}
	if !strings.Contains(lines[3], "10000") {
		t.Errorf("row = %q", lines[3])
	}
	// Columns align: "value" starts at the same offset in each row.
	col := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][col:], "1.50") {
		t.Errorf("misaligned column:\n%s", out)
	}
}
