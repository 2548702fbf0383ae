package sched

import (
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// scanBuild builds h's schedule on a fresh EnginePool whose per-round scans
// are chunked across a scan pool of workers goroutines (workers <= 0 means
// GOMAXPROCS, capped at the cluster count).
func scanBuild(h Heuristic, p *Problem, workers int) *Schedule {
	if workers > p.N {
		workers = p.N
	}
	pb := NewParallelBuilder(workers)
	defer pb.Close()
	ep := NewEnginePool()
	ep.Scan = pb
	return ep.Schedule(h, p)
}

// parallelWorkerCounts covers the degenerate single worker, uneven shards,
// more workers than receivers, and a typical core count.
var parallelWorkerCounts = []int{1, 2, 3, 5, 8, 32}

// TestParallelBuildMatchesEngineGrid5000 pins the bit-identity contract on
// the paper's platform: every heuristic, every root, several sizes, every
// worker count.
func TestParallelBuildMatchesEngineGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			p := MustProblem(g, root, m, Options{})
			for _, h := range equivalenceHeuristics() {
				seq := h.Schedule(p)
				for _, w := range parallelWorkerCounts {
					par := scanBuild(h, p, w)
					assertIdentical(t, h.Name(), par, seq)
				}
			}
		}
	}
}

// TestParallelBuildMatchesEngineRandom extends the contract to seeded random
// platforms across sizes, both completion models and both symmetry settings.
func TestParallelBuildMatchesEngineRandom(t *testing.T) {
	const platforms = 16
	for trial := 0; trial < platforms; trial++ {
		r := stats.NewRand(stats.SplitSeed(4242, int64(trial)))
		n := 2 + r.Intn(70)
		var g *topology.Grid
		if trial%2 == 0 {
			g = topology.RandomGrid(r, n)
		} else {
			g = topology.RandomSymmetricGrid(r, n)
		}
		p := MustProblem(g, r.Intn(n), 1<<20, Options{Overlap: trial%3 == 0})
		for _, h := range equivalenceHeuristics() {
			seq := h.Schedule(p)
			for _, w := range parallelWorkerCounts {
				assertIdentical(t, h.Name(), scanBuild(h, p, w), seq)
			}
		}
	}
}

// TestParallelBuildLargeGrid spot-checks the regime the parallel builder
// targets: one large platform, every heuristic, a few worker counts.
func TestParallelBuildLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid parallel equivalence is slow")
	}
	g := topology.RandomGrid(stats.NewRand(17), 256)
	p := MustProblem(g, 5, 1<<20, Options{Overlap: true})
	for _, h := range equivalenceHeuristics() {
		seq := h.Schedule(p)
		for _, w := range []int{2, 8} {
			assertIdentical(t, h.Name(), scanBuild(h, p, w), seq)
		}
	}
}

// TestParallelBuildComposites checks the delegating paths: Mixed renames its
// inner schedule, Refined parallelises only the base construction, FlatTree
// and unknown heuristics fall back to the sequential path.
func TestParallelBuildComposites(t *testing.T) {
	r := stats.NewRand(31)
	for _, n := range []int{6, 30} {
		p := MustProblem(topology.RandomGrid(r, n), 0, 1<<20, Options{})
		assertIdentical(t, "Mixed", scanBuild(Mixed{}, p, 4), Mixed{}.Schedule(p))
		ref := Refined{Base: ECEFLA(), MaxRounds: 1}
		assertIdentical(t, "Refined", scanBuild(ref, p, 4), ref.Schedule(p))
		assertIdentical(t, "FlatTree", scanBuild(FlatTree{}, p, 4), FlatTree{}.Schedule(p))
	}
}

// TestParallelBuildDefaultWorkers exercises the workers <= 0 default
// (GOMAXPROCS) and the workers > N cap.
func TestParallelBuildDefaultWorkers(t *testing.T) {
	p := MustProblem(topology.RandomGrid(stats.NewRand(8), 12), 0, 1<<20, Options{})
	for _, h := range equivalenceHeuristics() {
		assertIdentical(t, h.Name(), scanBuild(h, p, 0), h.Schedule(p))
		assertIdentical(t, h.Name(), scanBuild(h, p, 100), h.Schedule(p))
	}
}
