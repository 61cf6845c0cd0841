package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule, and whether the sample supports it: at least
// minBeyond samples must lie beyond the reported rank. The median
// (q = 0.5) of a non-empty sample is always reported, since it is the
// centre of the sample, not a tail.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	if q > 0.5 && n-1-rank < minBeyond {
		return s[rank], false
	}
	return s[rank], true
}

// median is quantile(xs, 0.5); zero for an empty sample.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// interval is a half-open time span [start, end).
type interval struct{ start, end time.Time }

// selfTime is the parent interval's length minus the part of it that
// the children cover. Children may overlap each other (a scatter over
// shards) and may stick out of the parent; only their union clipped to
// the parent counts, so overlapping work is never subtracted twice.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	if total <= 0 {
		return 0
	}
	var clipped []interval
	for _, c := range children {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return total - covered
}

// ratio is a quotient reported together with its base, so a reader can
// tell 1 of 2 from 500 of 1000.
type ratio struct {
	num, base float64
}

// value is num/base, or zero when the base is empty.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
