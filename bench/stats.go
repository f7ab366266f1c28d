package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailBeyond is how many samples must lie beyond the reported tail value.
const tailBeyond = 10

// tail applies the percentile rule of the choosing-metrics guide: report the
// highest percentile that still has at least tailBeyond samples beyond it.
// With n sorted samples that is s[n-11], at percentile 100·(n−10)/n. When
// that percentile would fall at or below the median (n ≤ 20) no tail
// qualifies and the median itself is returned at percentile 50.
func tail(xs []float64) (value, percentile float64, n int) {
	n = len(xs)
	if n <= 2*tailBeyond {
		return median(xs), 50, n
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), n
}

// spread returns the interquartile range of xs as a share of its median —
// the run-to-run spread the contract and `compare` judge bounds against.
// Quartiles use the exclusive method of Python's statistics.quantiles.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= len(s)-1:
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(0.75) - q(0.25)) / m)
}
