package main

import "math"

// rng is SplitMix64. Its output is fixed by its definition, so a seed gives
// byte-identical inputs and the same serve schedule on every commit and Go
// release, which math/rand does not promise across versions.
type rng struct{ s uint64 }

// Input streams. Each kind of input draws from its own stream, so adding or
// resizing one input set leaves every other set unchanged.
const (
	streamFactor uint64 = iota + 1
	streamServeSchedule
	streamServeInputs
	streamServeJobs
	streamQRFill
	streamDist
	streamLayers
	streamSetup
)

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed) ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// unit returns a uniform draw from [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// sym returns a uniform draw from [-1, 1).
func (r *rng) sym() float64 { return 2*r.unit() - 1 }

// exp returns an exponential draw with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.unit()) }

// general returns an m×n column-major matrix with entries in [-1, 1).
func (r *rng) general(m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = r.sym()
	}
	return a
}

// spd returns a symmetric n×n matrix whose diagonal n exceeds every row's
// off-diagonal sum, so it is positive definite and well conditioned.
func (r *rng) spd(n int) []float64 {
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			v := r.sym()
			a[i+j*n], a[j+i*n] = v, v
		}
		a[j+j*n] = float64(n)
	}
	return a
}

// diagDominant returns a general n×n matrix made strictly diagonally
// dominant, so elimination without pivoting is stable.
func (r *rng) diagDominant(n int) []float64 {
	a := r.general(n, n)
	for j := 0; j < n; j++ {
		a[j+j*n] += float64(n)
	}
	return a
}
