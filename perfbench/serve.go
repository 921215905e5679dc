package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"m3v/internal/bench"
	"m3v/internal/serve"
)

// serve-mix parameters. Two closed-loop clients and two server workers, each
// running its job's simulations one after another, keep the load within the
// two CPUs the benchmark is specified for.
const (
	mixClients = 2
	mixWorkers = 2
	// mixHot is the size of the hot set: fault-free fig6 requests that
	// differ only in their (ignored) tile count, so each has its own
	// digest but all must return the golden fig6 rows.
	mixHot = 4
	// mixMissShare is the fraction of requests that are fresh fig6 runs.
	mixMissShare = 0.25
	// mixFaultRate arms fault injection on fresh requests; the fault seed
	// makes each one a new digest, so it is always a cache miss.
	mixFaultRate = 0.02
	// mixBatch is the number of requests in one untraced pass: enough that
	// each pass's p99 has ten samples above it.
	mixBatch = 1000
	// mixFixedBatch is the number of requests in a fixed pass (the traced
	// run's traced pass and its untraced reference). It is fixed so the
	// traced run's hit, miss and simulated-work counts depend only on the
	// seed.
	mixFixedBatch = 400
)

// fig6Labels are the rows a served fig6 result carries (the simulated half
// of Figure 6); golden.json pins them.
var fig6Labels = []string{"M3v remote", "M3v local", "M3v remote (cycles)", "M3v local (cycles)"}

// mixReq is one generated request: a repeat of hot-set entry hot, or, when
// hot < 0, a fresh fig6 run with fault seed fault.
type mixReq struct {
	hot   int
	fault uint64
}

func (m mixReq) request() serve.Request {
	if m.hot >= 0 {
		return serve.Request{Experiment: "fig6", Tiles: m.hot + 1}
	}
	return serve.Request{Experiment: "fig6", FaultSeed: m.fault, FaultRate: mixFaultRate}
}

// mixGen is the seeded serve-mix request stream. The seed drives only this
// generator. Each stream draws its fault seeds from its own random base, so
// fresh requests never repeat a digest within a run.
type mixGen struct {
	rng  *rand.Rand
	next uint64 // next fresh fault seed
}

// newMixGen returns stream `stream` of the generator for seed. The regular
// passes draw from stream 0, the fixed passes from stream 1.
func newMixGen(seed int64, stream int64) *mixGen {
	rng := rand.New(rand.NewSource(seed*2 + stream))
	return &mixGen{rng: rng, next: uint64(rng.Int63())}
}

// batch draws the next n requests.
func (g *mixGen) batch(n int) []mixReq {
	out := make([]mixReq, n)
	for i := range out {
		if g.rng.Float64() < mixMissShare {
			out[i] = mixReq{hot: -1, fault: g.next}
			g.next++
		} else {
			out[i] = mixReq{hot: g.rng.Intn(mixHot)}
		}
	}
	return out
}

// serveMix drives an in-process serve.Server over loopback HTTP.
type serveMix struct {
	root string
	seed int64

	fig6      rows // golden fig6 rows a fault-free body must carry
	srv       *serve.Server
	stop      chan struct{}
	served    chan error
	client    *http.Client
	base      string
	gen       *mixGen
	fixedNext uint64         // next fault seed of a fixed pass's misses
	hot       [mixHot][]byte // response body of each hot request
	missMs    []float64      // host ms of each miss of the regular passes

	// Requests sent to the server, by expected cache outcome.
	sentHits, sentMisses int
}

func (s *serveMix) setup() error {
	g, err := loadGolden(s.root)
	if err != nil {
		return err
	}
	s.fig6 = subset(g["fig6"], fig6Labels...)
	if len(s.fig6) != len(fig6Labels) {
		return fmt.Errorf("golden fig6 lacks the served rows %v", fig6Labels)
	}
	// One simulation per server worker: two workers then keep the two
	// CPUs busy without oversubscribing them, so a miss that overlaps
	// another takes as long as one that does not.
	bench.SetParallelism(1)
	s.srv = serve.New(serve.Config{Workers: mixWorkers, Now: time.Now, Lookup: bench.Lookup})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.srv = nil
		return fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.stop = make(chan struct{})
	s.served = make(chan error, 1)
	go func(srv *serve.Server, stop chan struct{}, served chan error) {
		served <- srv.Serve(ln, stop)
	}(s.srv, s.stop, s.served)
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}}
	s.gen = newMixGen(s.seed, 0)
	s.fixedNext = newMixGen(s.seed, 1).next
	for i := range s.hot {
		body, err := s.warm(i)
		if err != nil {
			return fmt.Errorf("warm hot request %d: %w", i, err)
		}
		s.hot[i] = body
	}
	return nil
}

// warm sends hot request i for the first time and checks its rows against
// the golden snapshot.
func (s *serveMix) warm(i int) ([]byte, error) {
	req := mixReq{hot: i}
	s.sentMisses++
	body, cache, err := s.post(req.request())
	if err != nil {
		return nil, err
	}
	if cache != "miss" {
		return nil, fmt.Errorf("X-Cache %q, want miss", cache)
	}
	if err := checkBody(req.request(), body, s.fig6); err != nil {
		return nil, err
	}
	return body, nil
}

// fixedBatch draws the request pattern of a fixed pass: the first
// mixFixedBatch requests of stream 1. Every call sends the same hits and
// misses in the same order; the misses take fault seeds that continue from
// the previous call, so they stay fresh.
func (s *serveMix) fixedBatch() []mixReq {
	reqs := newMixGen(s.seed, 1).batch(mixFixedBatch)
	for i := range reqs {
		if reqs[i].hot < 0 {
			reqs[i].fault = s.fixedNext
			s.fixedNext++
		}
	}
	return reqs
}

func (s *serveMix) pass(o passOpts) passResult {
	var reqs []mixReq
	if o.fixed {
		reqs = s.fixedBatch()
	} else {
		reqs = s.gen.batch(mixBatch)
	}
	type outcome struct {
		ms  float64
		err error
	}
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += mixClients {
				id := o.sp.begin(o.parent, "http.POST /run", fmt.Sprintf("client=%d hot=%d", c, reqs[i].hot))
				t0 := time.Now()
				err := s.do(reqs[i])
				outs[i] = outcome{msSince(t0), err}
				o.sp.end(id)
			}
		}(c)
	}
	wg.Wait()

	var r passResult
	for i, out := range outs {
		if reqs[i].hot >= 0 {
			s.sentHits++
		} else {
			s.sentMisses++
			if !o.fixed {
				s.missMs = append(s.missMs, out.ms)
			}
		}
		r.attempted++
		r.lat = append(r.lat, out.ms)
		if out.err != nil {
			r.fail("serve-mix request %+v: %v", reqs[i], out.err)
			continue
		}
		r.completed++
	}
	return r
}

// do sends one request and checks its response.
func (s *serveMix) do(m mixReq) error {
	req := m.request()
	body, cache, err := s.post(req)
	if err != nil {
		return err
	}
	if m.hot >= 0 {
		if cache != "hit" {
			return fmt.Errorf("X-Cache %q, want hit", cache)
		}
		if !bytes.Equal(body, s.hot[m.hot]) {
			return fmt.Errorf("repeated request returned a different body")
		}
		return nil
	}
	if cache != "miss" {
		return fmt.Errorf("X-Cache %q, want miss", cache)
	}
	return checkBody(req, body, nil)
}

// post sends one POST /run and returns the body of a 200 response and its
// X-Cache header. Anything else, 429 included, is an error.
func (s *serveMix) post(req serve.Request) ([]byte, string, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := s.client.Post(s.base+"/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// checkBody verifies a fig6 response: the digest of the canonical request,
// and the served rows. With want set the rows must equal it exactly;
// otherwise (a fault-injected run, whose timings legitimately differ) they
// must be the fig6 labels with finite positive values.
func checkBody(req serve.Request, body []byte, want rows) error {
	canon, _, err := serve.Canonicalize(req, bench.Lookup)
	if err != nil {
		return err
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	if resp.Digest != canon.Digest() || resp.Result.ID != "fig6" {
		return fmt.Errorf("body for digest %.12s/%s, want %.12s/fig6", resp.Digest, resp.Result.ID, canon.Digest())
	}
	got := make(rows, len(resp.Result.Rows))
	for _, row := range resp.Result.Rows {
		got[row.Label] = row.Value
	}
	if want != nil {
		if d := diffRows(got, want); len(d) > 0 {
			return fmt.Errorf("fig6 vs golden: %s", describeDiff(d[0], got, want))
		}
		return nil
	}
	if len(got) != len(fig6Labels) {
		return fmt.Errorf("fig6 body has %d rows, want %d", len(got), len(fig6Labels))
	}
	for _, l := range fig6Labels {
		if v, ok := got[l]; !ok || !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("fig6 row %q = %v", l, v)
		}
	}
	return nil
}

// serverMetrics scrapes GET /metrics into name -> value.
func (s *serveMix) serverMetrics() (map[string]int64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// finish checks the server's own counters against what the generator
// sent: every repeat a hit, every fresh request a miss, nothing coalesced,
// rejected or failed.
func (s *serveMix) finish() []string {
	m, err := s.serverMetrics()
	if err != nil {
		return []string{fmt.Sprintf("serve-mix: scrape /metrics: %v", err)}
	}
	var out []string
	for name, want := range map[string]int64{
		"serve.cache_hits":      int64(s.sentHits),
		"serve.cache_misses":    int64(s.sentMisses),
		"serve.coalesced_waits": 0,
		"serve.queue_rejects":   0,
		"serve.jobs_failed":     0,
		"serve.jobs_cancelled":  0,
	} {
		if m[name] != want {
			out = append(out, fmt.Sprintf("serve-mix: server %s = %d, want %d from the requests sent", name, m[name], want))
		}
	}
	return out
}

// extras reports the host time per miss job as the client sees it. With two
// clients and two server workers no miss waits for a worker, so this is the
// job's time plus about 0.1 ms of HTTP (the hit latency).
func (s *serveMix) extras(traced bool) []extra {
	if !traced {
		return nil
	}
	l := summarize(s.missMs)
	note := fmt.Sprintf("host ms per miss request, %d misses of the untraced passes", l.N)
	return []extra{
		{"serve.job_ms_p50", l.P50, "ms", note},
		{"serve.job_ms_p99", l.P99, "ms", note},
	}
}

// close stops the server, waits for its drain, and drops idle connections.
func (s *serveMix) close() {
	if s.srv == nil {
		return
	}
	close(s.stop)
	if err := <-s.served; err != nil {
		fmt.Fprintf(os.Stderr, "serve-mix: server drain: %v\n", err)
	}
	s.client.CloseIdleConnections()
	s.srv = nil
}
