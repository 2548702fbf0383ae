package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, or 0 for an empty sample. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencyQuantiles summarises a latency sample for the report line.
func latencyQuantiles(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p10", 0.1}, {"p25", 0.25}, {"p40", 0.4}, {"p50", 0.5}, {"p60", 0.6}, {"p75", 0.75}, {"p90", 0.9}, {"p95", 0.95}, {"p98", 0.98}, {"p99", 0.99}, {"p999", 0.999}} {
		out[q.name] = quantile(xs, q.q)
	}
	return out
}
