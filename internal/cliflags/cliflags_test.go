package cliflags

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"m3v/internal/fault"
	"m3v/internal/sim"
)

// parse registers the shared flags on a fresh set, parses args and
// validates them, as both CLIs do.
func parse(args []string) (*Options, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.Validate()
}

// TestValidate covers the validation shared by m3vsim and m3vbench.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative rate", []string{"-fault-rate", "-0.1"}, "-fault-rate must be in [0,1]"},
		{"rate above one", []string{"-fault-rate", "1.5"}, "-fault-rate must be in [0,1]"},
		{"bad rate", []string{"-fault-rate", "2"}, "-fault-rate must be in [0,1]"},
		{"nan rate", []string{"-fault-rate", "NaN"}, "-fault-rate must be in [0,1]"},
		{"bad interval", []string{"-sample-interval", "later"}, "-sample-interval"},
		{"interval with spaces", []string{"-sample-interval", "5 minutes"}, "-sample-interval"},
		{"series needs interval", []string{"-series", "s.json"}, "-series requires -sample-interval"},
		{"interval 1ps", []string{"-sample-interval", "1ps"}, "-sample-interval must be at least 10ns"},
		{"interval 9ns", []string{"-sample-interval", "9ns"}, "-sample-interval must be at least 10ns"},
		{"zero interval", []string{"-sample-interval", "0s"}, "-sample-interval must be at least 10ns"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parse(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parse(%v) err = %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestConfigValues checks the configuration values the flags turn into:
// zero values (injection and sampling off) by default, the uniform fault
// config and the parsed interval when set.
func TestConfigValues(t *testing.T) {
	o, err := parse(nil)
	if err != nil {
		t.Fatalf("parse(nil): %v", err)
	}
	if o.Fault() != (fault.Config{}) || o.SampleInterval() != 0 {
		t.Errorf("defaults = %+v / %v, want zero values", o.Fault(), o.SampleInterval())
	}
	if o.FaultSeed != 1 || o.Collect() || o.Events() {
		t.Errorf("defaults = %+v", o)
	}
	o, err = parse([]string{"-fault-seed", "7", "-fault-rate", "0.1",
		"-sample-interval", "100ns", "-series", "s.json"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if o.Fault() != (fault.Config{Seed: 7, Rate: 0.1}) {
		t.Errorf("Fault() = %+v", o.Fault())
	}
	if o.SampleInterval() != 100*sim.Nanosecond {
		t.Errorf("SampleInterval() = %v", o.SampleInterval())
	}
	if !o.Collect() || o.Events() {
		t.Errorf("-series: Collect %v Events %v, want true/false", o.Collect(), o.Events())
	}
}

// TestSimulate checks that Simulate passes fn's error through and turns a
// panic into a "simulation failed" error.
func TestSimulate(t *testing.T) {
	want := errors.New("boom")
	if err := Simulate(func() error { return want }); err != want {
		t.Errorf("Simulate(error) = %v, want %v", err, want)
	}
	err := Simulate(func() error { panic("kernel: syscall reply failed") })
	if err == nil || err.Error() != "simulation failed: kernel: syscall reply failed" {
		t.Errorf("Simulate(panic) = %v", err)
	}
}
