package main

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks, the estimator numpy and
// Python's statistics module call "inclusive". xs need not be sorted; it
// is not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 for an empty set).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// goodput counts replies that succeeded within limit, per second of window.
// A failed or refused reply is passed as ok=false and always misses.
func goodput(lat []time.Duration, ok []bool, limit, window time.Duration) float64 {
	good := 0
	for i, l := range lat {
		if ok[i] && l <= limit {
			good++
		}
	}
	return float64(good) / window.Seconds()
}

// interval is a half-open span of time [start, end).
type interval struct{ start, end time.Duration }

// selfTime is parent's duration minus the part of it the children cover,
// counting overlapping children once and clipping them to the parent. It
// reorders and rewrites children in place, so a hot loop can reuse one
// buffer without allocating.
func selfTime(parent interval, children []interval) time.Duration {
	cs := children[:0]
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered := time.Duration(0)
	for i := 0; i < len(cs); {
		cur := cs[i]
		for i++; i < len(cs) && cs[i].start <= cur.end; i++ {
			cur.end = max(cur.end, cs[i].end)
		}
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msAll converts a slice of durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// pctReport is a percentile block for the report: each figure with the
// sample count behind it, and how many samples lie beyond each tail.
type pctReport struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p99_9"`
	Beyond struct {
		P90  int `json:"p90"`
		P99  int `json:"p99"`
		P999 int `json:"p99_9"`
	} `json:"samples_beyond"`
}

func percentiles(xs []float64) pctReport {
	r := pctReport{N: len(xs), P50: median(xs), P90: quantile(xs, 0.9),
		P99: quantile(xs, 0.99), P999: quantile(xs, 0.999)}
	for _, x := range xs {
		if x > r.P90 {
			r.Beyond.P90++
		}
		if x > r.P99 {
			r.Beyond.P99++
		}
		if x > r.P999 {
			r.Beyond.P999++
		}
	}
	return r
}
