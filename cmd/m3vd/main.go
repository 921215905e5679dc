// m3vd is the simulation-as-a-service daemon: it executes registry
// experiments (POST /run with a canonical request body) on a bounded
// worker pool and answers with m3vbench-shaped JSON. Identical requests
// are served from a deterministic LRU result cache or coalesced onto one
// in-flight run; a full admission queue answers 429 with Retry-After;
// SIGTERM/SIGINT drain gracefully. See the README "Serving" section and
// DESIGN.md §11.
//
// Usage:
//
//	m3vd -addr 127.0.0.1:8080
//	m3vd -addr 127.0.0.1:0 -portfile /tmp/m3vd.port   # ephemeral port
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"m3v/internal/bench"
	"m3v/internal/serve"
)

func main() {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "m3vd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: parse flags, bind, serve until stop
// yields, drain, return. A clean drain returns nil (exit 0).
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("m3vd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
	portFile := fs.String("portfile", "", "write the bound TCP port to this file once listening")
	workers := fs.Int("workers", 0, "simulation worker pool size (0 = one per core)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 2x workers)")
	cache := fs.Int("cache", 0, "LRU result cache entries (0 = 128, negative disables)")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "per-job wall-clock deadline (negative disables)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "bound on graceful drain before in-flight jobs are cancelled")
	retry := fs.Int("retry-after", 2, "Retry-After seconds on 429 backpressure responses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// Jobs already fan out across the pool; keep each job's internal sweep
	// serial so p99 stays stable under load.
	bench.SetParallelism(1)

	s := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
		RetrySeconds: *retry,
		Now:          time.Now,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "m3vd: listening on %s (%d workers)\n", l.Addr(), s.Workers())
	if *portFile != "" {
		port := l.Addr().(*net.TCPAddr).Port
		if err := os.WriteFile(*portFile, []byte(strconv.Itoa(port)+"\n"), 0o644); err != nil {
			l.Close()
			return err
		}
	}
	if err := s.Serve(l, stop); err != nil {
		return err
	}
	fmt.Fprintln(out, "m3vd: drained")
	return nil
}
