package sched

import (
	"context"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// epSegSchedule builds through the pooled segmented engine (coordGuard
// included) regardless of the segEngineMinN routing gate, so small golden
// platforms still exercise the engine under test.
func epSegSchedule(ep *EnginePool, h Heuristic, sp *SegmentedProblem) *SegmentedSchedule {
	return coordGuard(h, sp, func(spx *SegmentedProblem) *SegmentedSchedule {
		return ep.scheduleSegmentedOnce(h, spx)
	})
}

// TestSegmentedParallelMatchesReferenceGrid5000 pins the bit-identity
// contract of the chunked segmented scans on the paper's platform: an
// EnginePool with a Scan builder attached must reproduce the naive
// reference pickers exactly, at every worker count.
func TestSegmentedParallelMatchesReferenceGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, w := range []int{2, 3, 8} {
		pb := NewParallelBuilder(w)
		ep := NewEnginePool()
		ep.Scan = pb
		for _, m := range []int64{1 << 20, 9 << 20} {
			for _, segSize := range []int64{m, m / 4, 128 << 10} {
				for root := 0; root < g.N(); root++ {
					sp := MustSegmentedProblem(g, root, m, segSize, Options{})
					for _, h := range segmentedHeuristics() {
						inc := epSegSchedule(ep, h, sp)
						ref := ScheduleSegmentedReference(h, sp)
						assertSegIdentical(t, h.Name(), inc, ref)
					}
				}
			}
		}
		pb.Close()
	}
}

// TestSegmentedParallelMatchesReferenceRandom extends the contract to
// seeded random platforms across cluster counts, segment counts, both
// completion models and both random-grid flavours. Platforms above
// stealSeqCutoff receivers drive the work-stealing fan-out; the smaller
// ones pin the coordinator-only cutoff path.
func TestSegmentedParallelMatchesReferenceRandom(t *testing.T) {
	const platforms = 12
	pb := NewParallelBuilder(4)
	defer pb.Close()
	ep := NewEnginePool()
	ep.Scan = pb
	for trial := 0; trial < platforms; trial++ {
		r := stats.NewRand(stats.SplitSeed(9090, int64(trial)))
		n := 2 + r.Intn(100)
		var g *topology.Grid
		if trial%2 == 0 {
			g = topology.RandomGrid(r, n)
		} else {
			g = topology.RandomSizedGrid(r, n)
		}
		m := int64(1 << 20)
		segSize := []int64{m, m / 2, m / 16, m / 100}[trial%4]
		sp := MustSegmentedProblem(g, r.Intn(n), m, segSize, Options{Overlap: trial%3 == 0})
		for _, h := range segmentedHeuristics() {
			inc := epSegSchedule(ep, h, sp)
			ref := ScheduleSegmentedReference(h, sp)
			assertSegIdentical(t, h.Name(), inc, ref)
		}
	}
}

// TestParallelStealEngagesOnLargeRounds checks the scheduling split itself:
// on a platform with more receivers than stealSeqCutoff, early rounds must
// fan out to the pool (seqRounds stays below the round count) while the
// small tail rounds fall back to the coordinator — and the schedule is
// still bit-identical to the sequential engine either way.
func TestParallelStealEngagesOnLargeRounds(t *testing.T) {
	n := 160
	g := topology.RandomGrid(stats.NewRand(64), n)
	p := MustProblem(g, 0, 1<<20, Options{})
	pb := NewParallelBuilder(4)
	defer pb.Close()
	ep := NewEnginePool()
	ep.Scan = pb
	sc := ep.Schedule(ECEFLAT(), p)
	assertIdentical(t, "ECEF-LAt", sc, ECEFLAT().Schedule(p))
	rounds := n - 1
	if pb.seqRounds == 0 || pb.seqRounds >= rounds {
		t.Fatalf("seqRounds = %d of %d rounds; want some rounds stolen and the small tail sequential", pb.seqRounds, rounds)
	}
}

// TestEnginePoolScanPolicy pins the pooled unsegmented path with a Scan
// builder attached: EnginePool.Schedule must shard its per-round scans
// through the pool and stay bit-identical to the plain heuristic.
func TestEnginePoolScanPolicy(t *testing.T) {
	pb := NewParallelBuilder(3)
	defer pb.Close()
	ep := NewEnginePool()
	ep.Scan = pb
	for trial := 0; trial < 8; trial++ {
		r := stats.NewRand(stats.SplitSeed(7171, int64(trial)))
		n := 2 + r.Intn(80)
		p := MustProblem(topology.RandomGrid(r, n), r.Intn(n), 1<<20, Options{Overlap: trial%2 == 0})
		for _, h := range equivalenceHeuristics() {
			assertIdentical(t, h.Name(), ep.Schedule(h, p), h.Schedule(p))
		}
	}
}

// TestPipelinedParallelMatchesSequential checks WithScanWorkers coverage of
// the pipelined ladder: Pipelined.BestContext through an EnginePool with a Scan
// builder attached must reproduce the sequential pooled build exactly —
// same chosen segment size, same events, same makespan.
func TestPipelinedParallelMatchesSequential(t *testing.T) {
	pb := NewParallelBuilder(4)
	defer pb.Close()
	for trial := 0; trial < 6; trial++ {
		r := stats.NewRand(stats.SplitSeed(3131, int64(trial)))
		n := 8 + r.Intn(60)
		g := topology.RandomGrid(r, n)
		root := r.Intn(n)
		m := int64(4 << 20)
		for _, h := range []Heuristic{ECEFLAT(), BottomUp{}, FEF{}} {
			pl := Pipelined{Base: h}
			seq, err := pl.BestContext(context.Background(), NewEnginePool(), g, root, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			epPar := NewEnginePool()
			epPar.Scan = pb
			par, err := pl.BestContext(context.Background(), epPar, g, root, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSegIdentical(t, h.Name(), par, seq)
		}
	}
}
