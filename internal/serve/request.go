// Package serve is the simulation-as-a-service layer behind cmd/m3vd: an
// HTTP front end that executes registry experiments on a bounded worker
// pool and returns m3vbench-shaped JSON.
//
// The simulator is bit-deterministic: a canonical request fully determines
// the result bytes. That turns two classic serving heuristics into exact
// optimizations — the LRU result cache (equal digest, equal bytes, replay
// nothing) and singleflight coalescing of identical in-flight requests
// (every waiter gets the one computation's bytes). See DESIGN.md §11.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"m3v/internal/bench"
	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// Request is the canonical simulation request (schema m3vd/v2). The JSON
// body of POST /run decodes into it; Canonicalize validates it and fills
// defaults so equivalent requests collapse onto one digest.
type Request struct {
	// Experiment is a servable registry ID (see bench.Experiments).
	Experiment string `json:"experiment"`
	// Tiles is the worker tile count for sweep experiments; 0 means 1.
	Tiles int `json:"tiles,omitempty"`
	// FaultSeed / FaultRate arm deterministic fault injection when
	// FaultRate > 0 (rate in [0,1]; seed defaults to 1 when armed).
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// SampleInterval arms sim-time telemetry, e.g. "100ns"; empty is off.
	SampleInterval string `json:"sample_interval,omitempty"`
}

// maxBody bounds the accepted POST /run body.
const maxBody = 1 << 16

// decodeRequest decodes a POST /run body: at most maxBody bytes, and no
// field the schema does not define (a retired field such as m3vd/v1's
// "sched" is an error, not silently ignored).
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(io.LimitReader(body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// maxTiles bounds the accepted tile count; individual experiments may
// clamp further (fig9 caps at its figure range of 12).
const maxTiles = 64

// Canonicalize validates r against the experiment registry, normalizes
// every field to its canonical spelling (explicit tile count, re-rendered
// sample interval, zeroed seed and rate when faults are off), and returns
// the resolved runner parameters. Two requests that canonicalize equal are
// the same simulation.
func Canonicalize(r Request, lookup func(string) (bench.Experiment, bool)) (Request, bench.Params, error) {
	var p bench.Params
	exp, ok := lookup(r.Experiment)
	if !ok {
		return r, p, fmt.Errorf("unknown experiment %q", r.Experiment)
	}
	if exp.Servable == nil {
		return r, p, fmt.Errorf("experiment %q is not servable (CLI only)", r.Experiment)
	}
	if r.Tiles < 0 || r.Tiles > maxTiles {
		return r, p, fmt.Errorf("tiles %d out of range [0,%d]", r.Tiles, maxTiles)
	}
	if r.Tiles == 0 {
		r.Tiles = 1
	}
	p.Tiles = []int{r.Tiles}
	if !(r.FaultRate >= 0 && r.FaultRate <= 1) { // also rejects NaN
		return r, p, fmt.Errorf("fault_rate %g out of range [0,1]", r.FaultRate)
	}
	if r.FaultRate == 0 {
		// The seed is meaningless without a rate; the rate's sign is lost
		// (-0 spells the same simulation as 0).
		r.FaultSeed, r.FaultRate = 0, 0
	} else {
		if r.FaultSeed == 0 {
			r.FaultSeed = 1
		}
		p.Fault = fault.Config{Seed: r.FaultSeed, Rate: r.FaultRate}
	}
	if r.SampleInterval != "" {
		every, err := sim.ParseTime(r.SampleInterval)
		if err != nil {
			return r, p, fmt.Errorf("sample_interval: %w", err)
		}
		if every < core.MinSampleInterval {
			return r, p, fmt.Errorf("sample_interval %q must be at least %v", r.SampleInterval, core.MinSampleInterval)
		}
		r.SampleInterval = formatInterval(every)
		p.SampleInterval = every
	}
	return r, p, nil
}

// formatInterval spells a sampling interval canonically: Time's short
// rendering when it parses back to exactly t, integer picoseconds
// otherwise. The rendering rounds to three decimals, so "1.0005us" would
// otherwise canonicalize to "1us", a different simulation under the same
// digest.
func formatInterval(t sim.Time) string {
	s := t.String()
	if back, err := sim.ParseTime(s); err == nil && back == t {
		return s
	}
	return fmt.Sprintf("%dps", int64(t))
}

// Digest returns the stable identity of a canonical request: a hex SHA-256
// over a versioned, field-ordered encoding. Only meaningful after
// Canonicalize (otherwise equivalent spellings digest apart). The m3vd/v2
// prefix versions the encoding itself: a schema change must not collide
// with old digests.
func (r Request) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "m3vd/v2|%s|%d|%d|%x|%s",
		r.Experiment, r.Tiles, r.FaultSeed, r.FaultRate, r.SampleInterval)
	return hex.EncodeToString(h.Sum(nil))
}
