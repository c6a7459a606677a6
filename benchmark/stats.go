package main

import (
	"math"
	"sort"
)

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile p that still has
// at least ten samples beyond it, and the sample value at p, taken from
// the end of the distribution that is worse: the high end when lower is
// better, the low end otherwise. ok is false when that percentile would fall
// below the median (fewer than 20 samples).
func tailPercentile(xs []float64, lowerIsBetter bool) (p int, v float64, ok bool) {
	n := len(xs)
	p = int(math.Floor(100 * (1 - 10/float64(n))))
	if n < 11 || p < 50 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest-rank at p leaves at least n-ceil(p*n/100) >= 10 samples past it.
	k := int(math.Ceil(float64(p)*float64(n)/100)) - 1
	if lowerIsBetter {
		return p, s[k], true
	}
	return p, s[n-1-k], true
}

// quartiles returns the first and third quartile (linear interpolation
// between order statistics); zeros for fewer than two values.
func quartiles(xs []float64) [2]float64 {
	if len(xs) < 2 {
		return [2]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [2]float64{at(0.25), at(0.75)}
}
