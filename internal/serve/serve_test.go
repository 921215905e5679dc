package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m3v/internal/bench"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// okResult builds a deterministic fake experiment result from the params.
func okResult(id string, p bench.Params) *bench.Result {
	r := &bench.Result{ID: id, Title: "Fake experiment"}
	r.Add("tiles", float64(p.Tiles[0]), "n", 0)
	return r
}

// fakeLookup serves two servable fakes sharing one runner plus a CLI-only
// entry, standing in for the bench registry.
func fakeLookup(run func(string, bench.Params, *sim.Canceler) (*bench.Result, error)) func(string) (bench.Experiment, bool) {
	mk := func(id string) bench.Experiment {
		return bench.Experiment{
			ID:    id,
			Title: "Fake " + id,
			Servable: func(p bench.Params, c *sim.Canceler) (*bench.Result, error) {
				return run(id, p, c)
			},
		}
	}
	return func(id string) (bench.Experiment, bool) {
		switch id {
		case "fake", "other":
			return mk(id), true
		case "clionly":
			return bench.Experiment{ID: id, Title: "CLI only"}, true
		}
		return bench.Experiment{}, false
	}
}

// newTestServer spins a server over the fake runner behind an httptest
// front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one /run request and returns status, X-Cache, and body.
func post(t *testing.T, base string, req Request) (int, string, string) {
	t.Helper()
	resp, err := postCtx(context.Background(), base, req)
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), string(body)
}

func postCtx(ctx context.Context, base string, req Request) (*http.Response, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	return http.DefaultClient.Do(hr)
}

// get fetches a server path as text.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// metricValue extracts one "name value" line from a /metrics body.
func metricValue(body, name string) (int64, bool) {
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 &&
			strings.HasPrefix(line, name+" ") {
			return v, true
		}
	}
	return 0, false
}

// waitMetric polls /metrics until name reaches at least want.
func waitMetric(t *testing.T, base, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, base, "/metrics")
		if v, ok := metricValue(body, name); ok && v >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, body := get(t, base, "/metrics")
	t.Fatalf("metric %s never reached %d:\n%s", name, want, body)
}

// TestCanonicalizeDigest pins canonicalization: defaults fill in,
// equivalent spellings share a digest, distinct requests do not, and the
// validation paths reject.
func TestCanonicalizeDigest(t *testing.T) {
	lookup := fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
		return okResult(id, p), nil
	})
	canon, params, err := Canonicalize(Request{Experiment: "fake"}, lookup)
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	if canon.Tiles != 1 || canon.FaultSeed != 0 {
		t.Errorf("canonical defaults = %+v", canon)
	}
	if !reflect.DeepEqual(params, bench.Params{Tiles: []int{1}}) {
		t.Errorf("params = %+v", params)
	}

	spelled, _, err := Canonicalize(Request{Experiment: "fake", Tiles: 1, FaultSeed: 99}, lookup)
	if err != nil {
		t.Fatalf("Canonicalize spelled: %v", err)
	}
	if spelled.Digest() != canon.Digest() {
		t.Error("equivalent spellings digest apart (seed must zero without a rate)")
	}

	distinct, _, err := Canonicalize(Request{Experiment: "fake", Tiles: 2}, lookup)
	if err != nil {
		t.Fatalf("Canonicalize distinct: %v", err)
	}
	if distinct.Digest() == canon.Digest() {
		t.Error("distinct requests share a digest")
	}

	sampled, params, err := Canonicalize(Request{Experiment: "fake", SampleInterval: "0.1us"}, lookup)
	if err != nil {
		t.Fatalf("Canonicalize sampled: %v", err)
	}
	if sampled.SampleInterval != "100ns" || params.Sample.Interval != 100*sim.Nanosecond {
		t.Errorf("sample interval canonical form = %q / %v", sampled.SampleInterval, params.Sample.Interval)
	}
	// A spelling the short rendering would round keeps its exact value.
	exact, params, err := Canonicalize(Request{Experiment: "fake", SampleInterval: "1.0005us"}, lookup)
	if err != nil {
		t.Fatalf("Canonicalize exact: %v", err)
	}
	if exact.SampleInterval != "1000500ps" || params.Sample.Interval != 1000500*sim.Picosecond {
		t.Errorf("sample interval canonical form = %q / %v", exact.SampleInterval, params.Sample.Interval)
	}

	armed, params, err := Canonicalize(Request{Experiment: "fake", FaultRate: 0.5}, lookup)
	if err != nil {
		t.Fatalf("Canonicalize armed: %v", err)
	}
	if armed.FaultSeed != 1 {
		t.Errorf("armed fault seed = %d, want default 1", armed.FaultSeed)
	}
	if params.Fault != fault.Uniform(1, 0.5) {
		t.Errorf("armed fault config = %+v", params.Fault)
	}

	for _, bad := range []Request{
		{Experiment: "nope"},
		{Experiment: "clionly"},
		{Experiment: "fake", Tiles: -1},
		{Experiment: "fake", Tiles: maxTiles + 1},
		{Experiment: "fake", FaultRate: 1.5},
		{Experiment: "fake", SampleInterval: "later"},
	} {
		if _, _, err := Canonicalize(bad, lookup); err == nil {
			t.Errorf("Canonicalize(%+v) accepted", bad)
		}
	}
}

// TestCacheHitByteIdentical is the core soundness check: the duplicate of
// a completed request is served from cache, byte-identical, without
// re-running the experiment.
func TestCacheHitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 2,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			runs.Add(1)
			return okResult(id, p), nil
		}),
	})
	st1, cache1, body1 := post(t, ts.URL, Request{Experiment: "fake", Tiles: 3})
	st2, cache2, body2 := post(t, ts.URL, Request{Experiment: "fake", Tiles: 3})
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses = %d/%d, want 200", st1, st2)
	}
	if body1 != body2 {
		t.Errorf("duplicate responses differ:\n%s\nvs\n%s", body1, body2)
	}
	if cache1 != "miss" || cache2 != "hit" {
		t.Errorf("X-Cache = %q then %q, want miss then hit", cache1, cache2)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("experiment ran %d times, want 1", got)
	}
	var resp Response
	if err := json.Unmarshal([]byte(body1), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.Schema != ResponseSchema || resp.Result.Rows[0].Value != 3 {
		t.Errorf("response = %+v", resp)
	}
	_, metrics := get(t, ts.URL, "/metrics")
	for metric, want := range map[string]int64{
		"serve.cache_hits":   1,
		"serve.cache_misses": 1,
		"serve.jobs_done":    1,
		"serve.requests":     2,
	} {
		if v, ok := metricValue(metrics, metric); !ok || v != want {
			t.Errorf("%s = %d (present %v), want %d\n%s", metric, v, ok, want, metrics)
		}
	}
}

// TestCoalescing fires concurrent identical requests at a blocked runner:
// one execution, every waiter gets the same bytes.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 2,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			runs.Add(1)
			<-release
			return okResult(id, p), nil
		}),
	})
	const waiters = 4
	var wg sync.WaitGroup
	bodies := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, bodies[i] = post(t, ts.URL, Request{Experiment: "fake"})
		}(i)
	}
	waitMetric(t, ts.URL, "serve.coalesced_waits", waiters-1)
	close(release)
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("waiter %d got different bytes", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("experiment ran %d times, want 1 (coalesced)", got)
	}
}

// TestQueueFullBackpressure fills the single worker and the depth-1 queue,
// then expects 429 + Retry-After for a third distinct request.
func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	_, ts := newTestServer(t, Config{
		Workers:      1,
		QueueDepth:   1,
		RetrySeconds: 7,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			started <- struct{}{}
			<-release
			return okResult(id, p), nil
		}),
	})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); post(t, ts.URL, Request{Experiment: "fake", Tiles: 1}) }()
	<-started // job 1 occupies the worker
	go func() { defer wg.Done(); post(t, ts.URL, Request{Experiment: "fake", Tiles: 2}) }()
	waitMetric(t, ts.URL, "serve.inflight_calls", 2) // job 2 sits in the queue

	resp, err := postCtx(context.Background(), ts.URL, Request{Experiment: "fake", Tiles: 3})
	if err != nil {
		t.Fatalf("third POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	_, metrics := get(t, ts.URL, "/metrics")
	if v, _ := metricValue(metrics, "serve.queue_rejects"); v != 1 {
		t.Errorf("serve.queue_rejects = %d, want 1", v)
	}
	close(release)
	wg.Wait()
}

// TestDisconnectCancelsJob: when the last waiter disconnects, the job's
// canceler fires, the run reports cancelled, and the worker is free for
// the next job — observed via /metrics as the acceptance criteria demand.
func TestDisconnectCancelsJob(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			select {
			case <-c.Done():
				return nil, bench.ErrCancelled
			case <-release:
				return okResult(id, p), nil
			}
		}),
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		resp, err := postCtx(ctx, ts.URL, Request{Experiment: "fake", Tiles: 1})
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitMetric(t, ts.URL, "serve.workers_busy", 1)
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled client got a response")
	}
	waitMetric(t, ts.URL, "serve.jobs_cancelled", 1)
	waitMetric(t, ts.URL, "serve.disconnects", 1)

	// The worker must be free again: a fresh request completes.
	close(release) // let the follow-up job return immediately
	st, _, _ := post(t, ts.URL, Request{Experiment: "other", Tiles: 2})
	if st != 200 {
		t.Errorf("post-cancel request status = %d, want 200", st)
	}
	_, metrics := get(t, ts.URL, "/metrics")
	if v, _ := metricValue(metrics, "serve.workers_busy"); v != 0 {
		t.Errorf("serve.workers_busy = %d after jobs finished, want 0", v)
	}
}

// TestJobDeadline: a runner that never finishes is cancelled by the
// per-job wall-clock deadline and its waiter sees 504.
func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			<-c.Done()
			return nil, bench.ErrCancelled
		}),
	})
	st, _, body := post(t, ts.URL, Request{Experiment: "fake"})
	if st != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", st)
	}
	if !strings.Contains(body, "cancelled") {
		t.Errorf("body = %q, want cancellation error", body)
	}
	waitMetric(t, ts.URL, "serve.jobs_cancelled", 1)
}

// TestPanicIsolation: a panicking experiment answers 500 and the pool
// survives to serve the next request, whether the panic is raised by the
// driver itself or by a model process inside the simulation.
func TestPanicIsolation(t *testing.T) {
	cases := map[string]func(){
		"driver": func() { panic("kaboom") },
		"sim process": func() {
			e := sim.NewEngine()
			defer e.Shutdown()
			e.Spawn("bystander", func(p *sim.Proc) { p.Park() })
			e.Spawn("model", func(p *sim.Proc) {
				p.Sleep(sim.Nanosecond)
				panic("kaboom")
			})
			e.Run()
		},
	}
	for name, fail := range cases {
		t.Run(name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{
				Workers: 1,
				Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
					if id == "fake" {
						fail()
					}
					return okResult(id, p), nil
				}),
			})
			st, _, body := post(t, ts.URL, Request{Experiment: "fake"})
			if st != http.StatusInternalServerError || !strings.Contains(body, "panicked: kaboom") {
				t.Errorf("panic response = %d %q, want 500 with panic error", st, body)
			}
			if st, _, _ := post(t, ts.URL, Request{Experiment: "other"}); st != 200 {
				t.Errorf("post-panic request status = %d, want 200", st)
			}
			_, metrics := get(t, ts.URL, "/metrics")
			if v, _ := metricValue(metrics, "serve.jobs_failed"); v != 1 {
				t.Errorf("serve.jobs_failed = %d, want 1", v)
			}
		})
	}
}

// TestBadRequests covers the admission validation surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			return okResult(id, p), nil
		}),
	})
	if st, _, _ := post(t, ts.URL, Request{Experiment: "nope"}); st != 400 {
		t.Errorf("unknown experiment status = %d, want 400", st)
	}
	// Unknown fields are rejected, including m3vd/v1's retired "sched".
	for _, body := range []string{`{"experiment":"fake","bogus":1}`, `{"experiment":"fake","sched":"heap"}`} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status = %d, want 405", resp.StatusCode)
	}
	_, metrics := get(t, ts.URL, "/metrics")
	if v, _ := metricValue(metrics, "serve.bad_requests"); v != 3 {
		t.Errorf("serve.bad_requests = %d, want 3", v)
	}
}

// TestDrainingRejects: with the drain flag set, admission answers 503 and
// healthz flips unhealthy (exercised in-process; the network-level drain
// is TestServeDrain and the ci.sh serve-smoke stage).
func TestDrainingRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			return okResult(id, p), nil
		}),
	})
	if st, body := get(t, ts.URL, "/healthz"); st != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q, want 200 ok", st, body)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if st, _, _ := post(t, ts.URL, Request{Experiment: "fake"}); st != http.StatusServiceUnavailable {
		t.Errorf("draining POST status = %d, want 503", st)
	}
	if st, _ := get(t, ts.URL, "/healthz"); st != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", st)
	}
	_, metrics := get(t, ts.URL, "/metrics")
	if v, _ := metricValue(metrics, "serve.draining"); v != 1 {
		t.Errorf("serve.draining = %d, want 1", v)
	}
}

// TestServeDrain runs the full lifecycle on a real listener: an in-flight
// job straddles the stop signal, finishes during the drain, and Serve
// returns cleanly.
func TestServeDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{
		Workers: 1,
		Now:     time.Now,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			started <- struct{}{}
			<-release
			return okResult(id, p), nil
		}),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- s.Serve(l, stop) }()
	base := "http://" + l.Addr().String()

	result := make(chan int, 1)
	go func() {
		resp, err := postCtx(context.Background(), base, Request{Experiment: "fake"})
		if err != nil {
			result <- -1
			return
		}
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	<-started
	close(stop) // drain begins with the job still running
	time.Sleep(10 * time.Millisecond)
	close(release) // job finishes mid-drain
	if st := <-result; st != 200 {
		t.Errorf("in-flight request during drain: status %d, want 200", st)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v, want nil (clean drain)", err)
	}
}

// TestServeDrainTimeoutCancelsStuckJob: a job that outlives DrainTimeout
// is force-cancelled so the process can exit.
func TestServeDrainTimeoutCancelsStuckJob(t *testing.T) {
	started := make(chan struct{}, 1)
	s := New(Config{
		Workers:      1,
		DrainTimeout: 50 * time.Millisecond,
		Now:          time.Now,
		Lookup: fakeLookup(func(id string, p bench.Params, c *sim.Canceler) (*bench.Result, error) {
			started <- struct{}{}
			<-c.Done() // only a cancellation ends this job
			return nil, bench.ErrCancelled
		}),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- s.Serve(l, stop) }()
	base := "http://" + l.Addr().String()
	go func() {
		resp, err := postCtx(context.Background(), base, Request{Experiment: "fake"})
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	close(stop)
	select {
	case err := <-served:
		if err == nil {
			t.Log("drain completed cleanly (job cancelled in time)")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned: stuck job not force-cancelled")
	}
}

// TestExperimentsEndpoint lists the real registry's servable entries.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, body := get(t, ts.URL, "/experiments")
	if st != 200 {
		t.Fatalf("/experiments status = %d", st)
	}
	var entries []struct{ ID, Title string }
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/experiments not JSON: %v\n%s", err, body)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	if strings.Join(ids, ",") != "fig6,fig9" {
		t.Errorf("servable experiments = %v, want [fig6 fig9]", ids)
	}
}

// TestEndToEndFig6 exercises the real registry runner through the full
// HTTP path: the duplicate request must be a byte-identical cache hit.
func TestEndToEndFig6(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st1, cache1, body1 := post(t, ts.URL, Request{Experiment: "fig6"})
	st2, cache2, body2 := post(t, ts.URL, Request{Experiment: "fig6"})
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses = %d/%d\n%s", st1, st2, body1)
	}
	if body1 != body2 || cache1 != "miss" || cache2 != "hit" {
		t.Errorf("fig6 duplicate: cache %q/%q, identical %v", cache1, cache2, body1 == body2)
	}
	var resp Response
	if err := json.Unmarshal([]byte(body1), &resp); err != nil {
		t.Fatalf("fig6 response not JSON: %v", err)
	}
	if resp.Result.ID != "fig6" || len(resp.Result.Rows) != 4 {
		t.Errorf("fig6 result = %+v", resp.Result)
	}
	for _, row := range resp.Result.Rows {
		if row.Value <= 0 {
			t.Errorf("fig6 row %q = %g, want > 0", row.Label, row.Value)
		}
	}
}

// TestLRU pins the cache's eviction and recency behavior.
func TestLRU(t *testing.T) {
	c := newLRU(2)
	if c.put("a", []byte("A")) || c.put("b", []byte("B")) {
		t.Error("filling an empty cache evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if !c.put("c", []byte("C")) {
		t.Error("overflow did not evict")
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived: LRU should have evicted it (a was touched)")
	}
	if body, ok := c.get("a"); !ok || string(body) != "A" {
		t.Error("a lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	c.put("a", []byte("A2"))
	if body, _ := c.get("a"); string(body) != "A2" {
		t.Error("update did not replace body")
	}
	z := newLRU(-1)
	if z.put("x", []byte("X")) {
		t.Error("disabled cache evicted")
	}
	if _, ok := z.get("x"); ok {
		t.Error("disabled cache stored")
	}
}
