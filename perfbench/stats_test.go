package main

import (
	"math"
	"testing"
)

// The quartile reference values are what Python's
// statistics.quantiles(xs, n=4) returns for each input.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 2, 7, 11}, 2, 9},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestRelIQR(t *testing.T) {
	rel, err := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(rel-want) > 1e-12 {
		t.Errorf("relIQR = %v, want %v", rel, want)
	}
}

func TestMedianAndNearestRank(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if v := nearestRank(xs, 99); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
	if v := nearestRank(xs, 50); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
	if v := nearestRank([]float64{7}, 99); v != 7 {
		t.Errorf("p99 of one sample = %v", v)
	}
}

// The tail percentile is the highest that leaves at least ten samples
// strictly beyond its rank.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		name string
	}{
		{11, 0, false, ""},
		{20, 50, true, "p50"},
		{999, 95, true, "p95"},
		{1000, 99, true, "p99"},
		{2400, 99, true, "p99"},
		{9999, 99, true, "p99"},
		{10000, 99.9, true, "p99.9"},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.p {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if ok {
			if got := tailLabel(p); got != c.name {
				t.Errorf("tailLabel(%v) = %q, want %q", p, got, c.name)
			}
			if beyond := c.n - (rankIndex(c.n, p) + 1); beyond < 10 {
				t.Errorf("n=%d %s leaves %d samples beyond", c.n, c.name, beyond)
			}
		}
	}
}
