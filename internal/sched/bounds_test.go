package sched

import (
	"math"
	"testing"
	"testing/quick"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// lowerBound is a makespan bound valid for every schedule under both
// completion models: each non-root cluster must at least receive over its
// cheapest incoming edge and then run its local broadcast, and the root
// must at least run its own.
func lowerBound(p *Problem) float64 {
	lb := p.T[p.Root]
	for j := 0; j < p.N; j++ {
		if j == p.Root {
			continue
		}
		minIn := math.Inf(1)
		for k := 0; k < p.N; k++ {
			if k != j && p.w(k, j) < minIn {
				minIn = p.w(k, j)
			}
		}
		if b := minIn + p.T[j]; b > lb {
			lb = b
		}
	}
	return lb
}

// upperBoundFlat: no heuristic in the registry should ever exceed the flat
// tree by more than the trivial factor — in fact FlatTree itself is a hard
// upper bound for BestOf.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, overlap bool) bool {
		n := int(nRaw%10) + 2
		g := topology.RandomGrid(stats.NewRand(seed), n)
		p := MustProblem(g, 0, 1<<20, Options{Overlap: overlap})
		lb := lowerBound(p)
		for _, h := range Paper() {
			m := h.Schedule(p).Makespan
			if m < lb-1e-9 {
				return false
			}
		}
		best, spans := BestOf(Paper(), p)
		flat := spans[0] // FlatTree is first in the registry
		return best.Makespan <= flat+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: under the overlap model every completion equals RT+T; under the
// strict model it equals Idle+T and Idle >= RT.
func TestCompletionModelProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, overlap bool) bool {
		n := int(nRaw%8) + 2
		g := topology.RandomGrid(stats.NewRand(seed), n)
		p := MustProblem(g, 0, 1<<20, Options{Overlap: overlap})
		for _, h := range Paper() {
			sc := h.Schedule(p)
			for i := 0; i < p.N; i++ {
				if sc.Idle[i]+1e-12 < sc.RT[i] {
					return false
				}
				base := sc.Idle[i]
				if overlap {
					base = sc.RT[i]
				}
				if math.Abs(sc.Completion[i]-(base+p.T[i])) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the optimal search respects the same lower bound and is tight
// against BestOf on instances where some heuristic finds the optimum.
func TestOptimalRespectsLowerBound(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%4) + 2
		p := MustProblem(topology.RandomGrid(stats.NewRand(seed), n), 0, 1<<20, Options{})
		opt := Optimal{}.Schedule(p).Makespan
		return opt >= lowerBound(p)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: makespans are monotone in message size for every heuristic
// (a larger payload can never finish earlier on the same platform).
func TestMakespanMonotoneInSizeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, m1, m2 uint32) bool {
		n := int(nRaw%8) + 2
		g := topology.Grid5000() // size-dependent gaps matter here
		_ = n
		a, b := int64(m1), int64(m2)
		if a > b {
			a, b = b, a
		}
		pa := MustProblem(g, 0, a, Options{})
		pb := MustProblem(g, 0, b, Options{})
		for _, h := range Paper() {
			if h.Schedule(pa).Makespan > h.Schedule(pb).Makespan+1e-9 {
				return false
			}
		}
		_ = seed
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
