package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankIndex(len(s), p)]
}

func rankIndex(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank one place up.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still leaves
// at least ten of n samples strictly beyond its rank, so a tail figure is
// never a single outlier. ok is false when n is too small for any
// candidate (fewer than 12 samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-(rankIndex(n, p)+1) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// tailLabel names a percentile the way the metric names spell it: 99 ->
// "p99", 99.9 -> "p99.9".
func tailLabel(p float64) string {
	return "p" + fmt.Sprint(p)
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, including its extrapolation past the sample range
// for very small samples). It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// relIQR is the distance between the quartiles as a share of the median,
// the spread figure the benchmark's bounds are stated in.
func relIQR(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q3 - q1) / median(xs), nil
}
