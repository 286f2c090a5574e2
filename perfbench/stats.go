package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile; a
// tail read from fewer is a guess, not a measurement.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count). It panics on an empty slice: every caller has samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs, and an error
// when fewer than minBeyond samples lie above that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-k, minBeyond)
	}
	return sorted(xs)[k-1], nil
}

// tail returns the highest of the usual percentiles that percentile accepts
// for xs, with ok false when even the median has too few samples beyond.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if v, err := percentile(xs, p); err == nil {
			return p, v, true
		}
	}
	return 0, 0, false
}
