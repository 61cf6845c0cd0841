package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so quantile must sort
	}
	return xs
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, true},
		{2, 0.5, 1, true},
		{99, 0.9, 90, false}, // 9 samples beyond rank 90
		{100, 0.9, 90, true}, // exactly 10 beyond
		{101, 0.9, 91, true}, // ceil(90.9) = 91
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of an empty sample reported as supported")
	}
}

func TestQuantileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70 * time.Millisecond},
		{"overlapping counted once", []interval{iv(10, 40), iv(20, 50), iv(45, 60)}, 50 * time.Millisecond},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50 * time.Millisecond},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80 * time.Millisecond},
		{"clipped to parent", []interval{iv(-20, 10), iv(90, 140)}, 80 * time.Millisecond},
		{"outside parent", []interval{iv(120, 130)}, 100 * time.Millisecond},
		{"covers parent", []interval{iv(-5, 105)}, 0},
		{"unsorted", []interval{iv(70, 80), iv(10, 20)}, 80 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRatioKeepsBase(t *testing.T) {
	if v := (ratio{num: 1, base: 4}).value(); v != 0.25 {
		t.Errorf("1/4 = %v", v)
	}
	if v := (ratio{num: 3, base: 0}).value(); v != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", v)
	}
	r := ratio{num: 500, base: 1000}
	if r.base != 1000 || r.value() != 0.5 {
		t.Errorf("ratio lost its base: %+v", r)
	}
}
