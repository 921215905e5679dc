package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{7, 1, 3, 5} // unsorted on purpose
	for _, c := range []struct {
		q, want float64
	}{
		{0, 1}, {1, 7}, {0.5, 4}, {0.25, 2.5}, {0.75, 5.5}, {0.99, 6.94},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v, want 3", got)
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	l := summarize(xs)
	if l.N != 1000 {
		t.Errorf("N = %d, want 1000", l.N)
	}
	if l.P50 != 500.5 {
		t.Errorf("P50 = %v, want 500.5", l.P50)
	}
	if math.Abs(l.P99-990.01) > 1e-9 {
		t.Errorf("P99 = %v, want 990.01", l.P99)
	}
	// 991..1000 lie above p99: the tail is backed by ten samples.
	if n := l.beyond(xs); n != 10 {
		t.Errorf("beyond = %d, want 10", n)
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 || e.P99 != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", e)
	}
}
