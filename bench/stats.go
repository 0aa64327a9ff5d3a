package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	return percentile(vs, 50)
}

// percentile returns the p-th percentile of vs by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) computes them (exclusive method), which is
// what the benchmark driver uses for its spread check. Fewer than two
// samples have no spread: both quartiles are the single value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks, clamped to the sample; a
		// clamped rank extrapolates, exactly as CPython does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of its median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// ratio is a/b, 0 when b is 0 (a metric with no samples reads zero, never
// NaN: the result must stay valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
