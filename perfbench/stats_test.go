package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: helpers must not rely on input order
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{seq(10), 5.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01}, 0.9725, 1.0625},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.xs, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		ok   bool
		pct  float64
		want float64 // nearest-rank value in 1..n
	}{
		{0, false, 0, 0},
		{9, false, 0, 0},
		{39, false, 0, 0}, // p75 leaves only 9 above it; p50 is the median, not a tail
		{40, true, 75, 30},
		{99, true, 75, 75},
		{100, true, 90, 90},
		{199, true, 90, 180},
		{200, true, 95, 190},
		{1000, true, 99, 990},
		{10000, true, 99.9, 9990},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || (ok && v != tc.want) {
			t.Errorf("tail(n=%d) = p%v %v %v; want p%v %v %v", tc.n, pct, v, ok, tc.pct, tc.want, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("tail(n=%d) = %v has only %d samples beyond it", tc.n, v, beyond)
			}
		}
	}
}

func TestSummaryOmitsTailWhenTooFewSamples(t *testing.T) {
	s := summarize(seq(12))
	if s.TailP != nil || s.Tail != nil {
		t.Errorf("summary of 12 samples reports a tail: p%v = %v", *s.TailP, *s.Tail)
	}
	if s.N != 12 || s.Median != 6.5 || s.Min != 1 || s.Max != 12 || s.Q1 != 3.25 || s.Q3 != 9.75 {
		t.Errorf("summary = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summary of no samples = %+v, want all zero", s)
	}
	s = summarize(seq(100))
	if s.TailP == nil || *s.TailP != 90 || *s.Tail != 90 {
		t.Errorf("summary of 100 samples: tail p%v = %v, want p90 = 90", s.TailP, s.Tail)
	}
}

func TestPercentile(t *testing.T) {
	xs := seq(16)
	if got := percentile(xs, 50); got != 8 {
		t.Errorf("p50 = %v, want 8", got)
	}
	if got := percentile(xs, 90); got != 15 {
		t.Errorf("p90 = %v, want 15", got)
	}
	if got := percentile(xs, 100); got != 16 {
		t.Errorf("p100 = %v, want 16", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}
