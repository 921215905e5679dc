// m3vload is a closed-loop load generator for m3vd. It drives POST /run
// with a configurable duplicate fraction and reports throughput, latency
// percentiles, and the cache/coalescing split — the duplicate-heavy mode
// demonstrates the win from deterministic result caching: duplicates are
// answered from cache or coalesced onto the one in-flight run instead of
// re-simulating.
//
// Modes:
//
//	m3vload -addr HOST:PORT                         # closed-loop load run
//	m3vload -addr HOST:PORT -single -out r.json     # one request, body to file
//	m3vload -addr HOST:PORT -fetch /metrics         # GET a path, print body
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m3v/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "m3vload:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	addr    string
	fetch   string
	single  bool
	outFile string

	req serve.Request

	n       int
	c       int
	dup     float64
	seed    int64
	timeout time.Duration
}

// parseOptions parses and validates the flags.
func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("m3vload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.addr, "addr", "", "m3vd address (host:port), required")
	fs.StringVar(&o.fetch, "fetch", "", "GET this path (e.g. /metrics) and print the body")
	fs.BoolVar(&o.single, "single", false, "send exactly one request and print/save the body")
	fs.StringVar(&o.outFile, "out", "", "with -single: write the response body to this file")
	fs.StringVar(&o.req.Experiment, "experiment", "fig6", "experiment ID for /run requests")
	fs.IntVar(&o.req.Tiles, "tiles", 0, "tile count (0 = experiment default)")
	fs.Uint64Var(&o.req.FaultSeed, "fault-seed", 0, "fault injection seed")
	fs.Float64Var(&o.req.FaultRate, "fault-rate", 0, "fault injection rate in [0,1]")
	fs.StringVar(&o.req.SampleInterval, "sample-interval", "", "telemetry sampling interval, e.g. 100ns")
	fs.IntVar(&o.n, "n", 32, "total requests in load mode")
	fs.IntVar(&o.c, "c", 4, "concurrent workers in load mode")
	fs.Float64Var(&o.dup, "dup", 0.75, "fraction of requests duplicating the base request")
	fs.Int64Var(&o.seed, "seed", 1, "load pattern seed")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Minute, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.addr == "" {
		return nil, fmt.Errorf("-addr is required")
	}
	if o.dup < 0 || o.dup > 1 {
		return nil, fmt.Errorf("-dup must be in [0,1]")
	}
	if o.n < 1 || o.c < 1 {
		return nil, fmt.Errorf("-n and -c must be >= 1")
	}
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: o.timeout}
	base := "http://" + o.addr
	switch {
	case o.fetch != "":
		return doFetch(client, base, o.fetch, out)
	case o.single:
		return doSingle(client, base, o, out)
	default:
		return doLoad(client, base, o, out)
	}
}

// doFetch GETs one path and prints the body verbatim.
func doFetch(client *http.Client, base, path string, out io.Writer) error {
	resp, err := client.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(out, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// postRun sends one /run request and returns status, X-Cache, and body.
func postRun(client *http.Client, base string, req serve.Request) (int, string, []byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, nil
}

// doSingle sends the base request once; the exact body goes to -out (or
// stdout), the status line to the report writer.
func doSingle(client *http.Client, base string, o *options, out io.Writer) error {
	status, cache, body, err := postRun(client, base, o.req)
	if err != nil {
		return err
	}
	if o.outFile != "" {
		if err := os.WriteFile(o.outFile, body, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "m3vload: %s -> %d (x-cache %s), %d bytes to %s\n",
			o.req.Experiment, status, cache, len(body), o.outFile)
	} else {
		out.Write(body)
	}
	if status != http.StatusOK {
		return fmt.Errorf("request failed: status %d", status)
	}
	return nil
}

// pick builds the i-th request of the load pattern: with probability dup
// the base request (the duplicate-heavy hot key), otherwise a variant
// distinguished by its tile count.
func pick(rng *rand.Rand, o *options) serve.Request {
	req := o.req
	if rng.Float64() < o.dup {
		return req
	}
	// Distinct digest via the tiles knob; cycle a small cold set.
	req.Tiles = 2 + rng.Intn(8)
	return req
}

// doLoad runs the closed loop: c workers, n total requests, seeded
// duplicate-heavy pattern, then a throughput/latency/cache report.
func doLoad(client *http.Client, base string, o *options, out io.Writer) error {
	var (
		next    int64
		mu      sync.Mutex
		lats    []time.Duration
		byCache = map[string]int{}
		byCode  = map[int]int{}
		fails   int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(w)))
			for {
				if atomic.AddInt64(&next, 1) > int64(o.n) {
					return
				}
				req := pick(rng, o)
				t0 := time.Now()
				status, cache, _, err := postRun(client, base, req)
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					fails++
				} else {
					lats = append(lats, lat)
					byCode[status]++
					if cache != "" {
						byCache[cache]++
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	done := len(lats)
	fmt.Fprintf(out, "m3vload: %d requests (%d workers, dup %.2f) in %.2fs -> %.1f req/s\n",
		done+fails, o.c, o.dup, wall.Seconds(), float64(done)/wall.Seconds())
	fmt.Fprintf(out, "status: ")
	for _, code := range sortedIntKeys(byCode) {
		fmt.Fprintf(out, "%d x%d  ", code, byCode[code])
	}
	fmt.Fprintf(out, "errors x%d\n", fails)
	fmt.Fprintf(out, "cache:  hit x%d  miss x%d  coalesced x%d\n",
		byCache["hit"], byCache["miss"], byCache["coalesced"])
	if done > 0 {
		fmt.Fprintf(out, "latency: p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
			percentile(lats, 0.50).Seconds()*1e3,
			percentile(lats, 0.90).Seconds()*1e3,
			percentile(lats, 0.99).Seconds()*1e3,
			percentile(lats, 1.0).Seconds()*1e3)
	}
	if fails > 0 {
		return fmt.Errorf("%d requests failed", fails)
	}
	return nil
}

// percentile reports the q-quantile (0 < q <= 1) by nearest-rank over a
// copy of the samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedIntKeys returns the map's keys in ascending order (stable output).
func sortedIntKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
