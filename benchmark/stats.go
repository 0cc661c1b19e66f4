package main

import (
	"math"
	"sort"
)

// Dist summarizes one timing's samples: median and 90th percentile by
// the nearest-rank rule, with the sample count and how many samples lie
// beyond the p90 rank. A p90 is only resolved once at least ten samples
// lie beyond it (n >= 100); the record line reports both counts so a
// reader can tell.
type Dist struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50"`
	P90       float64 `json:"p90"`
	BeyondP90 int     `json:"beyond_p90"`
}

// rank is the 1-based nearest-rank index of percentile p (0 < p <= 100)
// in n sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// Percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples). xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// Summarize computes the Dist of xs.
func Summarize(xs []float64) Dist {
	d := Dist{N: len(xs)}
	if d.N == 0 {
		return d
	}
	d.P50 = Percentile(xs, 50)
	d.P90 = Percentile(xs, 90)
	d.BeyondP90 = d.N - rank(90, d.N)
	return d
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// GeoMean is the geometric mean of positive values (0 if any is not).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 { return safeDiv(sum(xs), float64(len(xs))) }

// safeDiv returns a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
