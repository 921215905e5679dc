package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3v/internal/sim"
	"m3v/internal/trace"
)

// writeTestFlows writes a small well-formed flows file (one completed
// noc.xfer span) and returns its path.
func writeTestFlows(t *testing.T) string {
	t.Helper()
	eng := sim.NewEngine()
	defer eng.Shutdown()
	rec := eng.Tracer()
	rec.Enable()
	ref := rec.BeginSpan(1, 0, trace.SpanNoCXfer, 100, 2, trace.CompNoC)
	rec.EndSpanArgs(ref, 250, trace.PathNone, 0, 1)

	path := filepath.Join(t.TempDir(), "flows.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFlows(f, []*trace.Recorder{rec}); err != nil {
		t.Fatalf("WriteFlows: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunUsageAndErrors covers the exit codes of the argument and I/O error
// paths.
func TestRunUsageAndErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "usage: m3vtrace") {
		t.Errorf("usage missing from stderr: %s", errOut.String())
	}

	errOut.Reset()
	if code := run([]string{"/nonexistent/flows.json"}, &out, &errOut); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{bad}, &out, &errOut); code != 1 {
		t.Errorf("bad file: exit %d, want 1", code)
	}
}

// TestRunCheck verifies -check on a well-formed stream.
func TestRunCheck(t *testing.T) {
	path := writeTestFlows(t)
	var out, errOut strings.Builder
	if code := run([]string{"-check", path}, &out, &errOut); code != 0 {
		t.Fatalf("-check: exit %d, stderr: %s", code, errOut.String())
	}
	if got := out.String(); !strings.Contains(got, "ok: 1 spans in 1 runs") {
		t.Errorf("-check output = %q", got)
	}
}

// TestRunReportAndPerfetto verifies the default report and the Perfetto
// export side file.
func TestRunReportAndPerfetto(t *testing.T) {
	path := writeTestFlows(t)
	perfetto := filepath.Join(t.TempDir(), "perfetto.json")
	var out, errOut strings.Builder
	if code := run([]string{"-perfetto", perfetto, path}, &out, &errOut); code != 0 {
		t.Fatalf("report: exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "perfetto: "+perfetto) {
		t.Errorf("perfetto confirmation missing: %q", out.String())
	}
	data, err := os.ReadFile(perfetto)
	if err != nil {
		t.Fatalf("perfetto file: %v", err)
	}
	if !strings.Contains(string(data), "noc.xfer") {
		t.Errorf("perfetto export missing the span: %s", data)
	}
}

// TestRunMalformedFlows checks that every kind of flows file WriteFlows
// cannot have written is a one-line error with exit 1 in each mode, never
// a panic.
func TestRunMalformedFlows(t *testing.T) {
	good, err := os.ReadFile(writeTestFlows(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, old, new, want string }{
		{"unknown name", `"noc.xfer"`, `"noc.bogus"`, `unknown span name "noc.bogus"`},
		{"unknown component", `"comp":"noc"`, `"comp":"gpu"`, `unknown component "gpu"`},
		{"unknown path", `"tile"`, `"path":"medium","tile"`, `unknown path "medium"`},
		{"id not position", `"id":1`, `"id":2`, "has id 2, want 1"},
		{"flow 0", `"flow":1`, `"flow":0`, "has flow 0"},
	}
	for _, tc := range cases {
		bad := strings.Replace(string(good), tc.old, tc.new, 1)
		if bad == string(good) {
			t.Fatalf("%s: %q not in %s", tc.name, tc.old, good)
		}
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range [][]string{{"-check"}, nil, {"-perfetto", filepath.Join(t.TempDir(), "p.json")}} {
			var out, errOut strings.Builder
			code := run(append(mode, path), &out, &errOut)
			msg := errOut.String()
			if code != 1 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
				t.Errorf("%s %v: exit %d, stderr %q; want exit 1 and one line containing %q",
					tc.name, mode, code, msg, tc.want)
			}
		}
	}
}
