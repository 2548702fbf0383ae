// Package stats provides the small statistical toolbox used by the
// simulation and experiment harness: streaming accumulators, percentiles
// and means.
//
// Everything here is deterministic and allocation-conscious; the experiment
// harness runs tens of thousands of Monte-Carlo iterations per figure and
// folds results through these accumulators.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance using Welford's method.
// The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Merge folds another accumulator into a (parallel reduction, Chan et al.).
// No production path uses it since the experiment sweeps moved to
// iteration-ordered folds (worker-count-exact figures); it is kept, tested,
// for consumers whose statistic need not be bitwise reproducible.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.mean += d * float64(b.n) / float64(n)
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// CI95 returns the half-width of the 95% normal confidence interval of the
// mean. It is approximate (z=1.96) but the harness uses 10^4 samples.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.Std() / math.Sqrt(float64(a.n))
}

// String renders "mean ± ci (n=..)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", a.Mean(), a.CI95(), a.n)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
