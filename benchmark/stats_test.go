package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{{50, 500, 500}, {99, 990, 10}, {90, 900, 100}} {
		got, beyond, err := percentile(sample, c.p)
		if err != nil || got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g = %g with %d beyond (%v), want %g with %d", c.p, got, beyond, err, c.want, c.wantBeyond)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	sample := make([]float64, 999)
	for i := range sample {
		sample[i] = float64(i)
	}
	if v, beyond, err := percentile(sample, 99); err == nil {
		t.Errorf("p99 of 999 samples = %g with %d beyond; want a refusal", v, beyond)
	}
	if _, _, err := percentile(sample, 99.9); err == nil {
		t.Error("p99.9 of 999 samples was not refused")
	}
	if _, _, err := percentile(sample[:19], 50); err == nil {
		t.Error("p50 of 19 samples was not refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, _, err := percentile(sample, p); err == nil {
			t.Errorf("percentile %g was not refused", p)
		}
	}
}

// The expected values are what Python's statistics.quantiles(x, n=4) and
// statistics.median(x) print.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10.2, 9.9, 10.0, 10.4, 9.7, 10.1, 10.3, 9.8, 10.05, 9.95}, 9.875, 10.025, 10.225},
	} {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.in); math.Abs(m-c.q2) > 1e-9 {
			t.Errorf("median(%v) = %g, want %g", c.in, m, c.q2)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-9 {
		t.Errorf("spread = %g, want 1", s)
	}
}
