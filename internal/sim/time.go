// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine executes exactly one event at a time in a total order given by
// (timestamp, insertion sequence). Model processes are coroutines
// (iter.Pull), and the engine enforces strict one-at-a-time hand-off: at any
// instant either the engine loop or exactly one process is running. Two runs
// of the same model therefore produce identical simulated results.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a point in simulated time, measured in picoseconds. The picosecond
// base lets clock domains of 100 MHz (10 000 ps), 80 MHz (12 500 ps) and
// 3 GHz (333 ps) coexist with integer arithmetic.
type Time int64

// Duration units expressed in the simulated time base.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest schedulable point in simulated time (about 53
// simulated days). Engine.Run executes events up to and including MaxTime;
// it exists so "run to completion" has a named bound instead of a magic
// sentinel.
const MaxTime Time = 1<<62 - 1

// String formats the time with an adaptive unit, e.g. "12.5us".
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t overflows back to t; format the one value without a
		// positive counterpart directly.
		return trimUnit(float64(t)/float64(Second), "s")
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return trimUnit(float64(t)/float64(Nanosecond), "ns")
	case t < Millisecond:
		return trimUnit(float64(t)/float64(Microsecond), "us")
	case t < Second:
		return trimUnit(float64(t)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(t)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// ParseTime parses a duration string in simulated time: a decimal number
// with a unit suffix ps, ns, us (or µs), ms, or s — the inverse of String.
// Used by CLI flags like -sample-interval.
func ParseTime(s string) (Time, error) {
	units := []struct {
		suffix string
		unit   Time
	}{
		// Longest suffixes first, so "ns" does not match the "s" rule.
		{"ps", Picosecond}, {"ns", Nanosecond},
		{"us", Microsecond}, {"µs", Microsecond},
		{"ms", Millisecond}, {"s", Second},
	}
	for _, u := range units {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok || num == "" {
			continue
		}
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q: %w", s, err)
		}
		if v < 0 {
			return 0, fmt.Errorf("bad duration %q: negative", s)
		}
		return Time(v * float64(u.unit)), nil
	}
	return 0, fmt.Errorf("bad duration %q: want a number with a ps/ns/us/ms/s suffix", s)
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Clock describes a clock domain by its period. A zero Clock is invalid; use
// MHz or GHz to construct one.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// MHz returns a clock with the given frequency in megahertz.
func MHz(f int64) Clock { return Clock{Period: Time(1_000_000/f) * Picosecond} }

// GHz returns a clock with the given frequency in gigahertz. Frequencies that
// do not divide 1000 ps evenly are rounded down to the nearest picosecond
// (3 GHz -> 333 ps), a <0.2% error that is irrelevant for the modelled
// experiments.
func GHz(f int64) Clock { return Clock{Period: Time(1000/f) * Picosecond} }

// Cycles converts a cycle count into a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// CyclesIn reports how many full cycles fit into d.
func (c Clock) CyclesIn(d Time) int64 {
	if c.Period <= 0 {
		return 0
	}
	return int64(d / c.Period)
}

// Freq reports the clock frequency in Hz.
func (c Clock) Freq() float64 {
	if c.Period <= 0 {
		return 0
	}
	return float64(Second) / float64(c.Period)
}
