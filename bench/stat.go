package main

import (
	"math"
	"sort"
)

// The benchmark does its own arithmetic on samples instead of importing
// internal/stats: a change to the repository's statistics helpers must not
// be able to move the numbers that referee it.

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of the samples; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-quantile (p in [0, 1]); 0 for none.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	r := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}

// quantile is the p-quantile (p in [0, 1]) with linear interpolation
// between the two nearest samples; 0 for none.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := p * float64(len(s)-1)
	lo := int(k)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(k-float64(lo))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// what the acceptance procedure of the benchmark contract uses. Fewer than
// two samples have no spread: both quartiles are the sample.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := sorted(v)
	at := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
