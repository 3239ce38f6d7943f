package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the benchmark's own spread matches the one computed over its results.
// ok is false for fewer than two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie above a percentile for it to be
// reported: fewer make the tail one or two unlucky samples.
const minBeyond = 10

// tail returns the highest percentile of xs in tailLadder that has at least
// minBeyond samples above it, with its nearest-rank value. ok is false when
// no percentile above the median qualifies (fewer than 40 samples).
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(float64(n) * p / 100))
		if rank >= 1 && n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of xs, or NaN for no
// samples. Unlike tail it reports a value however few samples exist.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(float64(n) * p / 100))
	rank = max(1, min(rank, n))
	return sorted(xs)[rank-1]
}

// summary is how every repeated measurement is reported: the median, the
// qualifying tail percentile if any, the sample count and the spread.
type summary struct {
	Median float64  `json:"median"`
	TailP  *float64 `json:"tail_pct,omitempty"`
	Tail   *float64 `json:"tail,omitempty"`
	Q1     float64  `json:"q1"`
	Q3     float64  `json:"q3"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	N      int      `json:"n"`
}

// summarize describes xs; with no samples it is all zero, N included.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	ss := sorted(xs)
	s := summary{Median: median(xs), Q1: ss[0], Q3: ss[len(ss)-1], Min: ss[0], Max: ss[len(ss)-1], N: len(xs)}
	if q1, q3, ok := quartiles(xs); ok {
		s.Q1, s.Q3 = q1, q3
	}
	if p, v, ok := tail(xs); ok {
		s.TailP, s.Tail = &p, &v
	}
	return s
}
