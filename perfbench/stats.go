package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether the q-quantile of n samples has at least
// minBeyond samples strictly beyond it, the condition under which a
// tail percentile is reported at all: p99 needs n >= 1000, p90
// n >= 100.
func tailOK(n int, q float64, minBeyond int) bool {
	beyond := int(math.Floor(float64(n)*(1-q) + 1e-9))
	return beyond >= minBeyond
}

// tailQuantiles are the percentiles a latency tail is reported at,
// from the highest down.
var tailQuantiles = []float64{0.99, 0.9, 0.5}

// highestTail returns the highest of tailQuantiles that n samples
// support with at least minBeyond samples beyond it; 0 if none does.
func highestTail(n, minBeyond int) float64 {
	for _, q := range tailQuantiles {
		if tailOK(n, q, minBeyond) {
			return q
		}
	}
	return 0
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
