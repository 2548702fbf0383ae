package sched

import (
	"reflect"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// replanDeltas are representative single-cluster drifts: slower out-links,
// faster+slower in-links, and a changed local broadcast time.
func replanDeltas(c int) []topology.Delta {
	return []topology.Delta{
		{Cluster: c, OutGapScale: 5},
		{Cluster: c, InGapScale: 0.2, InLatScale: 3},
		{Cluster: c, OutLatScale: 2.5, BcastTime: 1.5},
		{Cluster: c}, // identity: the replay must still reproduce the build
	}
}

// TestReplanByteIdentical is the replanning contract: for every ECEF-family
// heuristic and a spread of platforms, roots and drifts, ReplanSchedule on
// the drifted problem equals a from-scratch build in every field.
func TestReplanByteIdentical(t *testing.T) {
	r := stats.NewRand(11)
	grids := []*topology.Grid{
		topology.Grid5000(),
		topology.RandomClusteredGrid(r, 6),
		topology.RandomGrid(r, 24),
	}
	ep := NewEnginePool()
	for _, g := range grids {
		n := g.N()
		for _, root := range []int{0, n - 1} {
			p := MustProblem(g, root, 1<<20, Options{})
			for _, h := range ECEFFamily() {
				sc, tr := ScheduleTraced(ep, h, p)
				if tr == nil {
					t.Fatalf("%s: no trace for a traceable heuristic", h.Name())
				}
				if want := h.Schedule(p); !reflect.DeepEqual(sc, want) {
					t.Fatalf("%s: traced build diverges from plain build", h.Name())
				}
				for _, c := range []int{0, n / 2, n - 1} {
					for _, d := range replanDeltas(c) {
						ng, err := g.ApplyDelta(d)
						if err != nil {
							t.Fatal(err)
						}
						topology.PatchCosts(g, ng, c)
						pNew := MustProblem(ng, root, 1<<20, Options{})
						got := ReplanSchedule(pNew, sc, tr, c)
						if got == nil {
							t.Fatalf("%s: replan rejected an applicable trace", h.Name())
						}
						if want := h.Schedule(pNew); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s root %d delta %+v: replanned schedule diverges from rebuild",
								h.Name(), root, d)
						}
					}
				}
			}
		}
	}
}

// TestReplannerReuseByteIdentical: one Replanner replaying many traces
// back to back — different heuristics, drifts and platforms through the
// same scratch buffers — produces exactly the schedules the one-shot
// ReplanSchedule path produces. This is the batch-migration contract the
// facade's plan cache relies on: no state may leak between replays.
func TestReplannerReuseByteIdentical(t *testing.T) {
	r := stats.NewRand(17)
	grids := []*topology.Grid{
		topology.Grid5000(),
		topology.RandomClusteredGrid(r, 6),
		topology.RandomGrid(r, 24),
	}
	ep := NewEnginePool()
	rpl := NewReplanner()
	for _, g := range grids {
		n := g.N()
		p := MustProblem(g, 0, 1<<20, Options{})
		for _, c := range []int{0, n / 2, n - 1} {
			for _, d := range replanDeltas(c) {
				ng, err := g.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				topology.PatchCosts(g, ng, c)
				pNew := MustProblem(ng, 0, 1<<20, Options{})
				for _, h := range ECEFFamily() {
					sc, tr := ScheduleTraced(ep, h, p)
					want := ReplanSchedule(pNew, sc, tr, c)
					got := rpl.Replan(pNew, sc, tr, c)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s delta %+v: reused Replanner diverges from one-shot replay",
							h.Name(), d)
					}
				}
			}
		}
	}
	// Rejections reset nothing and later replays still work.
	p := MustProblem(grids[0], 0, 1<<20, Options{})
	sc, tr := ScheduleTraced(ep, ECEFLAT(), p)
	if rpl.Replan(p, sc, nil, 0) != nil {
		t.Error("nil trace accepted")
	}
	if got := rpl.Replan(p, sc, tr, 0); !reflect.DeepEqual(got, ReplanSchedule(p, sc, tr, 0)) {
		t.Error("replay after a rejection diverges")
	}
}

// TestReplanRejectsInapplicableTrace: mismatched dimensions, roots or
// missing traces return nil instead of a wrong schedule.
func TestReplanRejectsInapplicableTrace(t *testing.T) {
	g := topology.Grid5000()
	p := MustProblem(g, 0, 1<<20, Options{})
	sc, tr := ScheduleTraced(NewEnginePool(), ECEFLAT(), p)
	if ReplanSchedule(p, sc, nil, 0) != nil {
		t.Error("nil trace accepted")
	}
	if ReplanSchedule(p, nil, tr, 0) != nil {
		t.Error("nil old schedule accepted")
	}
	other := MustProblem(g, 2, 1<<20, Options{})
	if ReplanSchedule(other, sc, tr, 0) != nil {
		t.Error("root mismatch accepted")
	}
	if ReplanSchedule(p, sc, tr, -1) != nil || ReplanSchedule(p, sc, tr, p.N) != nil {
		t.Error("out-of-range changed cluster accepted")
	}
	small := MustProblem(topology.RandomGrid(stats.NewRand(3), 4), 0, 1<<20, Options{})
	if ReplanSchedule(small, sc, tr, 0) != nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestScheduleTracedNonTraceable: heuristics outside the ECEF family build
// normally and return no trace.
func TestScheduleTracedNonTraceable(t *testing.T) {
	g := topology.Grid5000()
	p := MustProblem(g, 0, 1<<20, Options{})
	for _, h := range Paper() {
		sc, tr := ScheduleTraced(NewEnginePool(), h, p)
		if Traceable(h) {
			if tr == nil {
				t.Errorf("%s: traceable but no trace", h.Name())
			}
		} else if tr != nil {
			t.Errorf("%s: trace for a non-traceable heuristic", h.Name())
		}
		if want := h.Schedule(p); !reflect.DeepEqual(sc, want) {
			t.Errorf("%s: ScheduleTraced diverges from Schedule", h.Name())
		}
	}
}

// driftProblem clones p and scales wide-area row+column `changed` (and
// T[changed]) by a power of two, which keeps the fuzzer's dyadic tie grid
// exact (see fuzzProblem): every drifted sum still compares exactly.
func driftProblem(p *Problem, changed int, factor float64) *Problem {
	n := p.N
	np := &Problem{
		N: n, Root: p.Root, Overlap: p.Overlap, MsgSize: p.MsgSize,
		G: make([][]float64, n),
		L: make([][]float64, n),
		W: make([][]float64, n),
		T: append([]float64(nil), p.T...),
	}
	for i := 0; i < n; i++ {
		np.G[i] = append([]float64(nil), p.G[i]...)
		np.L[i] = append([]float64(nil), p.L[i]...)
		np.W[i] = append([]float64(nil), p.W[i]...)
	}
	for j := 0; j < n; j++ {
		if j == changed {
			continue
		}
		np.G[changed][j] *= factor
		np.L[changed][j] *= factor
		np.W[changed][j] = np.G[changed][j] + np.L[changed][j]
		np.G[j][changed] *= factor
		np.L[j][changed] *= factor
		np.W[j][changed] = np.G[j][changed] + np.L[j][changed]
	}
	np.T[changed] *= factor
	return np
}

// FuzzReplanEquivalence fuzzes platforms — including the coarsely quantised
// dyadic ones full of exact ties — drifts one cluster by a power of two, and
// checks that the replayed schedule is bit-identical to a from-scratch build
// on the drifted problem, for every traceable heuristic, with and without
// the engine pool.
func FuzzReplanEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(5), uint8(24), uint8(2), uint8(3), uint8(5), uint8(1), true)
	f.Add(int64(-3), uint8(13), uint8(12), uint8(2), uint8(7), uint8(2), false)
	f.Add(int64(99), uint8(29), uint8(1), uint8(4), uint8(29), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, n8, root8, quant, changed8, fac8 uint8, overlap bool) {
		p := fuzzProblem(seed, n8, root8, quant, overlap)
		changed := int(changed8) % p.N
		factor := []float64{0.5, 2, 4, 0.25}[fac8%4]
		pNew := driftProblem(p, changed, factor)
		ep := NewEnginePool()
		for _, h := range ECEFFamily() {
			sc, tr := ScheduleTraced(ep, h, p)
			got := ReplanSchedule(pNew, sc, tr, changed)
			if got == nil {
				t.Fatalf("%s: replan rejected an applicable trace", h.Name())
			}
			want := h.Schedule(pNew)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replan diverges from rebuild (seed %d n %d changed %d factor %g)",
					h.Name(), seed, p.N, changed, factor)
			}
			// A fresh pool's trace, same contract.
			scu, tru := ScheduleTraced(NewEnginePool(), h, p)
			if !reflect.DeepEqual(scu, sc) {
				t.Fatalf("%s: warm-pool and fresh-pool traced builds diverge", h.Name())
			}
			if gotu := ReplanSchedule(pNew, scu, tru, changed); !reflect.DeepEqual(gotu, want) {
				t.Fatalf("%s: fresh-pool replan diverges from rebuild", h.Name())
			}
		}
	})
}

// BenchmarkReplan compares absorbing a single-cluster drift by patch+replay
// against the full rebuild a caller without the trace must perform:
// re-costing the drifted platform (O(N²) pLogP evaluations) and scheduling
// it from scratch (N=512, ECEF-LAT — the regime BENCH_5 pins for full
// builds). Both sides start from the drifted grid. The *Schedule
// sub-benchmarks isolate the scheduling step, where the >= 5x acceptance
// bar lives (replay beats the from-scratch build by ~50x); the end-to-end
// pair additionally pays the platform clone + cost patch that both sides
// share, which caps it near 2x until a plan cache amortises one drift
// across many replans (ROADMAP item 2).
func BenchmarkReplan(b *testing.B) {
	r := stats.NewRand(1)
	g := topology.RandomGrid(r, 512)
	p := MustProblem(g, 0, 1<<20, Options{})
	ep := NewEnginePool()
	h := ECEFLAT()
	sc, tr := ScheduleTraced(ep, h, p)
	// Drift a late-scheduled cluster: the typical replanning case, where the
	// drift perturbs a small subtree rather than invalidating the whole plan.
	changed := sc.Events[len(sc.Events)-1].To
	d := topology.Delta{Cluster: changed, OutGapScale: 1.5, InGapScale: 1.5}

	b.Run("replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ng, err := g.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			topology.PatchCosts(g, ng, changed)
			pNew := MustProblem(ng, 0, 1<<20, Options{})
			if ReplanSchedule(pNew, sc, tr, changed) == nil {
				b.Fatal("trace rejected")
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ng, err := g.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			pNew := MustProblem(ng, 0, 1<<20, Options{})
			ep.Schedule(h, pNew)
		}
	})

	ng, err := g.ApplyDelta(d)
	if err != nil {
		b.Fatal(err)
	}
	topology.PatchCosts(g, ng, changed)
	pNew := MustProblem(ng, 0, 1<<20, Options{})
	b.Run("replanSchedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ReplanSchedule(pNew, sc, tr, changed) == nil {
				b.Fatal("trace rejected")
			}
		}
	})
	b.Run("rebuildSchedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ep.Schedule(h, pNew)
		}
	})
}
