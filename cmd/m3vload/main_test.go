package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseOptionsErrors covers flag validation.
func TestParseOptionsErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing addr", nil, "-addr is required"},
		{"positional", []string{"-addr", "x:1", "extra"}, "unexpected arguments"},
		{"bad dup", []string{"-addr", "x:1", "-dup", "2"}, "-dup must be in [0,1]"},
		{"bad n", []string{"-addr", "x:1", "-n", "0"}, "-n and -c must be >= 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseOptions(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseOptions(%v) err = %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestPercentile pins the nearest-rank math.
func TestPercentile(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.0, 100 * time.Millisecond},
	} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// TestPickPattern checks the load pattern: dup=1 always replays the base
// request, dup=0 always varies tiles within the cold set, and equal seeds
// produce equal sequences.
func TestPickPattern(t *testing.T) {
	base, err := parseOptions([]string{"-addr", "x:1", "-experiment", "fig9", "-tiles", "1"})
	if err != nil {
		t.Fatal(err)
	}
	base.dup = 1
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		if req := pick(rng, base); req != base.req {
			t.Fatalf("dup=1 produced variant %+v", req)
		}
	}
	base.dup = 0
	for i := 0; i < 16; i++ {
		req := pick(rng, base)
		if req.Tiles < 2 || req.Tiles > 9 {
			t.Fatalf("cold variant tiles = %d, want [2,9]", req.Tiles)
		}
	}
	seq := func(seed int64) []int {
		r := rand.New(rand.NewSource(seed))
		base.dup = 0.5
		var out []int
		for i := 0; i < 32; i++ {
			out = append(out, pick(r, base).Tiles)
		}
		return out
	}
	a, b := seq(3), seq(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("equal seeds produced different patterns")
		}
	}
}

// stubServer fakes the m3vd surface: /run returns a fixed body (X-Cache
// miss on first sight of a body, hit after), /metrics a fixed snapshot.
func stubServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	var mu sync.Mutex // load mode calls /run from several workers at once
	seen := make(map[string]bool)
	mux := http.NewServeMux()
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		var req map[string]any
		json.NewDecoder(r.Body).Decode(&req)
		key, _ := json.Marshal(req)
		cache := "miss"
		mu.Lock()
		if seen[string(key)] {
			cache = "hit"
		}
		seen[string(key)] = true
		mu.Unlock()
		w.Header().Set("X-Cache", cache)
		w.Write([]byte(`{"schema":"m3vd/v2","stub":true}` + "\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("serve.cache_hits 3\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

// TestLoadModeReport runs the closed loop against the stub and checks the
// report lines.
func TestLoadModeReport(t *testing.T) {
	_, addr := stubServer(t)
	var out strings.Builder
	err := run([]string{"-addr", addr, "-n", "20", "-c", "3", "-dup", "0.8"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"20 requests", "req/s", "latency: p50", "cache:  hit x"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestSingleAndFetch covers the byte-exact -single -out path (what the
// ci.sh smoke cmps) and the -fetch passthrough.
func TestSingleAndFetch(t *testing.T) {
	_, addr := stubServer(t)
	outFile := filepath.Join(t.TempDir(), "r.json")
	var out strings.Builder
	if err := run([]string{"-addr", addr, "-single", "-out", outFile}, &out); err != nil {
		t.Fatalf("-single: %v", err)
	}
	body, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"schema":"m3vd/v2","stub":true}`+"\n" {
		t.Errorf("-out body = %q", body)
	}
	out.Reset()
	if err := run([]string{"-addr", addr, "-fetch", "/metrics"}, &out); err != nil {
		t.Fatalf("-fetch: %v", err)
	}
	if out.String() != "serve.cache_hits 3\n" {
		t.Errorf("-fetch body = %q", out.String())
	}
}
