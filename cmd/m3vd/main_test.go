package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunBadFlags covers the validation paths; run must fail before
// binding a listener, so the nil stop channel is never waited on.
func TestRunBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"positional", []string{"fig6"}},
		{"bad addr", []string{"-addr", "definitely:not:an:addr"}},
		{"retired parallel", []string{"-parallel", "2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out, nil); err == nil {
				t.Errorf("run(%v) succeeded, want error", c.args)
			}
		})
	}
}

// TestRunLifecycle boots the daemon on an ephemeral port, checks the
// portfile handshake and the health/validation endpoints, then drains it
// via the stop channel and requires a clean (nil) exit.
func TestRunLifecycle(t *testing.T) {
	portFile := filepath.Join(t.TempDir(), "port")
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-portfile", portFile, "-workers", "1",
		}, io.Discard, stop)
	}()

	var port string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			port = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if port == "" {
		t.Fatal("portfile never appeared")
	}
	base := "http://127.0.0.1:" + port

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Post(base+"/run", "application/json",
		strings.NewReader(`{"experiment":"nope"}`))
	if err != nil {
		t.Fatalf("bad run request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment status = %d, want 400", resp.StatusCode)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}
