package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.N() != 5 {
		t.Fatalf("N = %d, want 5", a.N())
	}
	if got := a.Mean(); math.Abs(got-3) > 1e-12 {
		t.Errorf("Mean = %g, want 3", got)
	}
	if got := a.Var(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Var = %g, want 2.5", got)
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Errorf("Min/Max = %g/%g, want 1/5", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Std() != 0 || a.CI95() != 0 {
		t.Errorf("empty accumulator should report zeros, got %v", a.String())
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(7)
	if a.Mean() != 7 || a.Var() != 0 || a.Min() != 7 || a.Max() != 7 {
		t.Errorf("single-sample accumulator wrong: %v", a)
	}
}

// Property: merging two accumulators is equivalent to adding all samples to
// one accumulator.
func TestAccumulatorMergeProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Accumulator
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(all.Mean()))
		if math.Abs(a.Mean()-all.Mean()) > tol {
			return false
		}
		return math.Abs(a.Var()-all.Var()) <= 1e-4*(1+all.Var())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMergeEmptySides(t *testing.T) {
	var a, b Accumulator
	b.Add(3)
	a.Merge(&b) // empty <- non-empty
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge into empty failed: %v", a)
	}
	var c Accumulator
	a.Merge(&c) // non-empty <- empty
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge of empty changed state: %v", a)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-1, 1}, {101, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
	// input must not be reordered
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); math.Abs(got-5) > 1e-12 {
		t.Errorf("Percentile(50) = %g, want 5", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 9}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := SplitSeed(7, i)
		if seen[s] {
			t.Fatalf("SplitSeed collision at stream %d", i)
		}
		seen[s] = true
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		x := Uniform(r, 2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform out of range: %g", x)
		}
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
