package main

import (
	"math"
	"testing"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ceiling float64
		want    float64
	}{
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95},
		{200, 0.99, 0.95},
		{100, 0.99, 0.9},
		{100, 0.9, 0.9},
		{99, 0.9, 0.75},
		{1000, 0.9, 0.9},
		{12, 0.99, 0.5},
	}
	for _, c := range cases {
		q := tailQuantile(c.n, c.ceiling)
		if q != c.want {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.ceiling, q, c.want)
		}
		if c.n >= 20 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= %d", c.n, 100*q, beyond(c.n, q), minBeyond)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	s := sorted(xs)
	if got := quantile(s, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %g, want 990", got)
	}
	over := 0
	for _, x := range xs {
		if x > quantile(s, 0.99) {
			over++
		}
	}
	if over != beyond(len(xs), 0.99) || over != 10 {
		t.Fatalf("%d samples above p99, beyond() says %d, want 10", over, beyond(len(xs), 0.99))
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Fatalf("p50 = %g, want 500", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of no samples should be NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
