package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridbcast/internal/stats"
)

// fuzzProblem builds a scheduling instance directly from fuzzer-chosen
// knobs. quant > 0 quantises the gap and latency draws onto a coarse
// DYADIC grid (multiples of scale/64), deliberately manufacturing exact
// float ties — the regime where the incremental engine's tie-breaking must
// replicate the naive scans. The grid is dyadic on purpose: every sum the
// engines form is then exact, so two candidate costs compare equal exactly
// when their inputs are equal. A non-dyadic grid (say multiples of 1/3)
// additionally manufactures rounding collisions — partial keys that differ
// by an ulp while the full sums round equal — which is the documented
// measure-zero caveat of engine.go, not a tie-break bug; the fuzzer finds
// it within seconds if allowed to.
func fuzzProblem(seed int64, n8, root8, quant uint8, overlap bool) *Problem {
	n := 2 + int(n8%30)
	r := stats.NewRand(seed)
	draw := func(scale float64) float64 {
		if quant == 0 {
			return scale * (0.1 + r.Float64())
		}
		return scale * float64(1+r.Intn(int(quant))) * (1.0 / 64)
	}
	p := &Problem{
		N:       n,
		Root:    int(root8) % n,
		Overlap: overlap,
		MsgSize: 1 << 20,
		G:       make([][]float64, n),
		L:       make([][]float64, n),
		T:       make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.G[i] = make([]float64, n)
		p.L[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			p.G[i][j] = draw(1.0)
			p.L[i][j] = draw(0.015625)
		}
		p.T[i] = draw(0.5)
	}
	return p
}

// fuzzSegmentedProblem wraps a fuzz problem with per-segment matrices
// scaled from the full-message ones (the exact shape real grids produce:
// smaller segments, smaller gaps). dyadic forces a power-of-two segment
// count, keeping the scaled matrices on the exact dyadic grid (see
// fuzzProblem) for the bit-equality oracle; invariant-only fuzzing passes
// false and covers remainder segments too.
func fuzzSegmentedProblem(p *Problem, k int, dyadic bool) *SegmentedProblem {
	m := p.MsgSize
	if k < 1 {
		k = 1
	}
	if dyadic {
		pow := 1
		for pow*2 <= k && pow < 256 {
			pow *= 2
		}
		k = pow
	}
	segSize := (m + int64(k) - 1) / int64(k)
	k = int((m + segSize - 1) / segSize)
	sp := &SegmentedProblem{
		Problem:  p,
		SegSize:  segSize,
		LastSize: m - int64(k-1)*segSize,
		K:        k,
	}
	if k == 1 {
		sp.Gs, sp.Gl = p.G, p.G
		return sp
	}
	frac := float64(segSize) / float64(m)
	lfrac := float64(sp.LastSize) / float64(m)
	n := p.N
	sp.Gs = make([][]float64, n)
	sp.Gl = make([][]float64, n)
	for i := 0; i < n; i++ {
		sp.Gs[i] = make([]float64, n)
		sp.Gl[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			sp.Gs[i][j] = p.G[i][j] * frac
			sp.Gl[i][j] = p.G[i][j] * lfrac
		}
	}
	return sp
}

// randomOrder draws a uniformly random valid broadcast pair sequence.
func randomOrder(r *rand.Rand, p *Problem) [][2]int {
	inA := []int{p.Root}
	inB := make([]int, 0, p.N-1)
	for i := 0; i < p.N; i++ {
		if i != p.Root {
			inB = append(inB, i)
		}
	}
	pairs := make([][2]int, 0, p.N-1)
	for len(inB) > 0 {
		s := inA[r.Intn(len(inA))]
		bi := r.Intn(len(inB))
		d := inB[bi]
		inB[bi] = inB[len(inB)-1]
		inB = inB[:len(inB)-1]
		inA = append(inA, d)
		pairs = append(pairs, [2]int{s, d})
	}
	return pairs
}

// FuzzEvaluateSegmented drives the exact segmented evaluator with random
// platforms and random valid pair sequences: the makespan must be finite,
// non-negative and self-consistent (Validate re-times the sequence), the
// evaluation must be deterministic, and with a single segment it must
// reproduce the unsegmented Replay bit for bit.
func FuzzEvaluateSegmented(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint8(0), uint8(1), false)
	f.Add(int64(42), uint8(20), uint8(3), uint8(4), uint8(7), true)
	f.Add(int64(-7), uint8(2), uint8(1), uint8(1), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed int64, n8, root8, quant, k8 uint8, overlap bool) {
		p := fuzzProblem(seed, n8, root8, quant, overlap)
		sp := fuzzSegmentedProblem(p, int(k8), false)
		pairs := randomOrder(stats.NewRand(stats.SplitSeed(seed, 99)), p)

		ss := EvaluateSegmented(sp, pairs)
		if math.IsNaN(ss.Makespan) || math.IsInf(ss.Makespan, 0) || ss.Makespan < 0 {
			t.Fatalf("degenerate makespan %g", ss.Makespan)
		}
		for i := 0; i < p.N; i++ {
			if ss.RT[i] < ss.FirstRT[i] || ss.Completion[i] < ss.RT[i] ||
				math.IsNaN(ss.RT[i]) || ss.RT[i] < 0 {
				t.Fatalf("cluster %d: FirstRT %g RT %g Completion %g", i, ss.FirstRT[i], ss.RT[i], ss.Completion[i])
			}
		}
		if err := ss.Validate(sp); err != nil {
			t.Fatal(err)
		}
		if again := EvaluateSegmented(sp, pairs); !reflect.DeepEqual(ss, again) {
			t.Fatal("evaluator is not deterministic")
		}
		if sp.K == 1 {
			sc := Replay(p, pairs)
			if !reflect.DeepEqual(ss.Events, sc.Events) || ss.Makespan != sc.Makespan ||
				!reflect.DeepEqual(ss.RT, sc.RT) || !reflect.DeepEqual(ss.Completion, sc.Completion) {
				t.Fatalf("one-segment evaluation diverges from Replay: %g vs %g", ss.Makespan, sc.Makespan)
			}
		}
	})
}

// FuzzEngineEquivalence fuzzes gap matrices — including coarsely quantised
// ones full of exact ties — and checks that the incremental engine and the
// pooled engines reproduce the naive reference pickers bit for bit, for the
// segmented model too.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), uint8(1), false)
	f.Add(int64(5), uint8(24), uint8(2), uint8(3), uint8(5), true)
	f.Add(int64(-3), uint8(13), uint8(12), uint8(2), uint8(16), false)
	f.Fuzz(func(t *testing.T, seed int64, n8, root8, quant, k8 uint8, overlap bool) {
		p := fuzzProblem(seed, n8, root8, quant, overlap)
		sp := fuzzSegmentedProblem(p, int(k8), quant > 0)
		ep := NewEnginePool()
		for _, h := range equivalenceHeuristics() {
			ref := Reference{Base: h}.Schedule(p)
			if inc := h.Schedule(p); !reflect.DeepEqual(inc, ref) {
				t.Fatalf("%s: engine diverges from reference", h.Name())
			}
			if pooled := ep.Schedule(h, p); !reflect.DeepEqual(pooled, ref) {
				t.Fatalf("%s: pooled engine diverges from reference", h.Name())
			}
			if math.IsNaN(ref.Makespan) || ref.Makespan < 0 {
				t.Fatalf("%s: degenerate makespan %g", h.Name(), ref.Makespan)
			}
			segRef := ScheduleSegmentedReference(h, sp)
			if segInc := ScheduleSegmented(h, sp); !reflect.DeepEqual(segInc, segRef) {
				t.Fatalf("%s: segmented engine diverges from reference", h.Name())
			}
			if segPooled := ep.ScheduleSegmented(h, sp); !reflect.DeepEqual(segPooled, segRef) {
				t.Fatalf("%s: pooled segmented engine diverges from reference", h.Name())
			}
		}
	})
}
