package sched

import (
	"context"
	"math"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// Metamorphic properties of the scheduling model: transformations of the
// input with a known exact effect on the output. They hold for every
// heuristic because the engine's arithmetic is a composition of additions,
// max/min and comparisons of the transformed quantities.

// scaledProblem returns p with every time-dimensioned parameter (gaps,
// latencies, local broadcast times) multiplied by c.
func scaledProblem(p *Problem, c float64) *Problem {
	n := p.N
	q := &Problem{N: n, Root: p.Root, Overlap: p.Overlap, MsgSize: p.MsgSize,
		G: make([][]float64, n), L: make([][]float64, n),
		T: make([]float64, n)}
	for i := 0; i < n; i++ {
		q.G[i] = make([]float64, n)
		q.L[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			q.G[i][j] = c * p.G[i][j]
			q.L[i][j] = c * p.L[i][j]
		}
		q.T[i] = c * p.T[i]
	}
	return q
}

// TestMetamorphicGapScaling: multiplying every gap, latency and local
// broadcast time by c multiplies every heuristic's makespan by exactly c.
// c is a power of two, so c·a + c·b == c·(a+b) holds bit for bit and every
// comparison the pickers make is preserved — the assertion is exact, not
// approximate.
func TestMetamorphicGapScaling(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		r := stats.NewRand(stats.SplitSeed(2024, int64(trial)))
		n := 3 + r.Intn(30)
		p := MustProblem(topology.RandomGrid(r, n), r.Intn(n), 1<<20, Options{Overlap: trial%2 == 0})
		for _, c := range []float64{2, 0.25, 1024} {
			q := scaledProblem(p, c)
			for _, h := range append(equivalenceHeuristics(), Mixed{}) {
				orig := h.Schedule(p)
				scaled := h.Schedule(q)
				if scaled.Makespan != c*orig.Makespan {
					t.Fatalf("trial %d %s c=%g: makespan %g != %g·%g",
						trial, h.Name(), c, scaled.Makespan, c, orig.Makespan)
				}
				for k := range orig.Events {
					if scaled.Events[k].From != orig.Events[k].From ||
						scaled.Events[k].To != orig.Events[k].To ||
						scaled.Events[k].Start != c*orig.Events[k].Start {
						t.Fatalf("trial %d %s c=%g: event %d not scale-equivariant", trial, h.Name(), c, k)
					}
				}
			}
		}
	}
}

// TestMetamorphicGapScalingSegmented extends the scaling property to the
// segmented model (per-segment matrices scale with the rest).
func TestMetamorphicGapScalingSegmented(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		r := stats.NewRand(stats.SplitSeed(2025, int64(trial)))
		n := 3 + r.Intn(20)
		g := topology.RandomSizedGrid(r, n)
		sp := MustSegmentedProblem(g, 0, 1<<20, 128<<10, Options{Overlap: trial%2 == 0})
		const c = 4.0
		sq := &SegmentedProblem{
			Problem: scaledProblem(sp.Problem, c),
			SegSize: sp.SegSize, LastSize: sp.LastSize, K: sp.K,
		}
		scale2 := func(m [][]float64) [][]float64 {
			out := make([][]float64, len(m))
			for i := range m {
				out[i] = make([]float64, len(m[i]))
				for j := range m[i] {
					out[i][j] = c * m[i][j]
				}
			}
			return out
		}
		sq.Gs, sq.Gl = scale2(sp.Gs), scale2(sp.Gl)
		for _, h := range segmentedHeuristics() {
			orig := ScheduleSegmented(h, sp)
			scaled := ScheduleSegmented(h, sq)
			if scaled.Makespan != c*orig.Makespan {
				t.Fatalf("trial %d %s: segmented makespan %g != %g·%g",
					trial, h.Name(), scaled.Makespan, c, orig.Makespan)
			}
		}
	}
}

// permutedProblem relabels the clusters of p with the permutation perm
// (cluster i becomes perm[i]).
func permutedProblem(p *Problem, perm []int) *Problem {
	n := p.N
	q := &Problem{N: n, Root: perm[p.Root], Overlap: p.Overlap, MsgSize: p.MsgSize,
		G: make([][]float64, n), L: make([][]float64, n),
		T: make([]float64, n)}
	for i := 0; i < n; i++ {
		q.G[i] = make([]float64, n)
		q.L[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q.G[perm[i]][perm[j]] = p.G[i][j]
			q.L[perm[i]][perm[j]] = p.L[i][j]
		}
		q.T[perm[i]] = p.T[i]
	}
	return q
}

// TestMetamorphicRelabeling: renaming the clusters permutes the schedule
// but cannot change its makespan — the candidate costs are the same set of
// floats, so with continuous random draws (no exact ties, hence no
// tie-break sensitivity) the argmin sequence maps through the permutation
// and every timing is reproduced exactly. FlatTree is excluded by design:
// its reception ORDER is the cluster numbering, so relabeling legitimately
// changes its schedule.
func TestMetamorphicRelabeling(t *testing.T) {
	labelFree := []Heuristic{FEF{}, FEF{Weight: WeightFull}, ECEF(), ECEFLA(), ECEFLAt(), ECEFLAT(), BottomUp{}, Mixed{}}
	for trial := 0; trial < 8; trial++ {
		r := stats.NewRand(stats.SplitSeed(2026, int64(trial)))
		n := 3 + r.Intn(30)
		p := MustProblem(topology.RandomGrid(r, n), r.Intn(n), 1<<20, Options{Overlap: trial%2 == 0})
		perm := r.Perm(n)
		q := permutedProblem(p, perm)
		for _, h := range labelFree {
			orig := h.Schedule(p)
			relab := h.Schedule(q)
			if relab.Makespan != orig.Makespan {
				t.Fatalf("trial %d %s: relabeled makespan %g != %g",
					trial, h.Name(), relab.Makespan, orig.Makespan)
			}
			// The event sequence must be the original mapped through perm.
			for k := range orig.Events {
				if relab.Events[k].From != perm[orig.Events[k].From] ||
					relab.Events[k].To != perm[orig.Events[k].To] ||
					relab.Events[k].Arrive != orig.Events[k].Arrive {
					t.Fatalf("trial %d %s: event %d does not map through the permutation", trial, h.Name(), k)
				}
			}
		}
	}
}

// TestMetamorphicPipelinedNeverWorseRandom: on seeded random platforms
// with size-dependent gaps, Pipelined over any base heuristic stays ≤ that
// heuristic's unsegmented makespan (the ladder always contains the
// unsegmented candidate), so the pipelined strategy never loses to the
// paper's single-shot model.
func TestMetamorphicPipelinedNeverWorseRandom(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		r := stats.NewRand(stats.SplitSeed(2027, int64(trial)))
		n := 3 + r.Intn(16)
		g := topology.RandomSizedGrid(r, n)
		root := r.Intn(n)
		m := []int64{64 << 10, 1 << 20, 8 << 20}[trial%3]
		opt := Options{Overlap: true}
		p := MustProblem(g, root, m, opt)
		for _, h := range Paper() {
			best, err := Pipelined{Base: h}.BestContext(context.Background(), NewEnginePool(), g, root, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if unseg := h.Schedule(p).Makespan; best.Makespan > unseg+1e-12 {
				t.Fatalf("trial %d %s at %d bytes: pipelined %g worse than unsegmented %g",
					trial, h.Name(), m, best.Makespan, unseg)
			}
			if math.IsNaN(best.Makespan) || best.Makespan <= 0 {
				t.Fatalf("trial %d %s: degenerate pipelined makespan %g", trial, h.Name(), best.Makespan)
			}
		}
	}
}
