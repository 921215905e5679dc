package main

import (
	"sync"
	"time"
)

// span is one benchmark-side interval around a public call: a pass, a
// Fig9Point or Fig10 call, an HTTP request, a probe loop. Times are
// nanoseconds since the run started. Spans of one run share its run id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a run's spans in memory until the run ends. A nil *spans
// records nothing, so untraced runs pay only a nil check. Safe for
// concurrent use (serve-mix clients record from two goroutines).
type spans struct {
	run string
	t0  time.Time

	mu   sync.Mutex
	list []span
}

func newSpans(run string) *spans { return &spans{run: run, t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 means none).
func (s *spans) begin(parent int, name, attr string) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Attr: attr, Start: now})
	return len(s.list)
}

// end closes the span begin returned.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// all returns the recorded spans.
func (s *spans) all() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}
