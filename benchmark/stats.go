package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of samples by linear
// interpolation between order statistics; NaN for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// tailLevels are the tail percentiles reported, lowest first.
var tailLevels = []float64{0.90, 0.95, 0.99, 0.999}

// tailPercentile applies the reporting rule for tails: the highest level of
// tailLevels that still has at least ten samples beyond it. ok is false when
// even p90 has fewer (n < 100), in which case only the median is reported.
func tailPercentile(n int) (level float64, ok bool) {
	for _, l := range tailLevels {
		if float64(n)*(1-l) >= 10-1e-9 {
			level, ok = l, true
		}
	}
	return level, ok
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(values, n=4) (exclusive), which is
// what the acceptance rule for a benchmark's spread is written against.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	q := func(i int) float64 {
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
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / q2
}
