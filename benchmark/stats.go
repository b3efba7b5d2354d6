package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending sample and how many samples lie beyond it. It refuses a
// percentile with fewer than minBeyond samples beyond it: a tail read off a
// handful of points is noise, not a measurement.
func percentile(sorted []float64, p float64) (value float64, beyond int, err error) {
	if p <= 0 || p >= 100 {
		return 0, 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], beyond, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default exclusive method),
// which is what the driver's acceptance check computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		if n == 1 {
			return x[0], x[0], x[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func median(values []float64) float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}
