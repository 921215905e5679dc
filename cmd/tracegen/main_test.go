package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunErrors covers the usage errors: each exits 2 with a one-line
// message on stderr and prints nothing on stdout.
func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown phase", []string{"-phase", "stup"}, `unknown phase "stup"`},
		{"unknown trace", []string{"-trace", "ls"}, `unknown trace "ls"`},
		{"positional argument", []string{"-summary", "find"}, `unexpected arguments ["find"]`},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("run(%v) = %d, want 2", c.args, code)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr = %q, want containing %q", stderr.String(), c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want empty", stdout.String())
			}
		})
	}
}

// TestRunOutput checks the summary header line, and that -phase selects
// which op list follows it.
func TestRunOutput(t *testing.T) {
	var summary, setup, runOps, stderr bytes.Buffer
	if code := run([]string{"-trace", "sqlite", "-summary"}, &summary, &stderr); code != 0 {
		t.Fatalf("-summary exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(summary.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "# trace sqlite: ") ||
		!strings.Contains(lines[0], " setup ops, ") || !strings.HasSuffix(lines[0], " compute cycles)") {
		t.Fatalf("-summary output = %q, want one '# trace sqlite: ...' header line", summary.String())
	}
	if code := run([]string{"-trace", "sqlite", "-phase", "setup"}, &setup, &stderr); code != 0 {
		t.Fatalf("-phase setup exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-trace", "sqlite"}, &runOps, &stderr); code != 0 {
		t.Fatalf("default phase exit %d: %s", code, stderr.String())
	}
	for name, out := range map[string]string{"setup": setup.String(), "run": runOps.String()} {
		if !strings.HasPrefix(out, lines[0]+"\n") || len(out) == len(lines[0])+1 {
			t.Errorf("-phase %s output does not start with the header and list ops", name)
		}
	}
	if setup.String() == runOps.String() {
		t.Error("-phase setup printed the run phase")
	}
}
