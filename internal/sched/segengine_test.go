package sched

import (
	"reflect"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// assertSegIdentical fails unless the two segmented schedules are identical
// in every field (events with exact float timings, per-cluster times,
// makespan). Exact equality is intentional: the incremental segmented
// engine must replicate the naive pickers' arithmetic bit for bit.
func assertSegIdentical(t *testing.T, label string, inc, ref *SegmentedSchedule) {
	t.Helper()
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("%s: incremental segmented schedule diverges from reference\nincremental: %+v\nreference:   %+v", label, inc, ref)
	}
}

// segEngineSchedule forces the incremental segmented engine regardless of
// the segEngineMinN routing gate, so small golden platforms (Grid5000 has
// 6 clusters) still pin the engine itself and not naive-vs-naive.
func segEngineSchedule(h Heuristic, sp *SegmentedProblem) *SegmentedSchedule {
	return NewEnginePool().scheduleSegmentedOnce(h, sp)
}

// TestSegmentedEngineMatchesReferenceGrid5000 pins the golden equivalence
// on the paper's platform: every heuristic with a native segmented picker,
// several message sizes and segment sizes, every root. Grid5000 sits below
// the segEngineMinN routing gate, so the engine is invoked directly — the
// gate must never be what makes this test pass.
func TestSegmentedEngineMatchesReferenceGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 20, 9 << 20} {
		for _, segSize := range []int64{m, m / 4, 128 << 10} {
			for root := 0; root < g.N(); root++ {
				sp := MustSegmentedProblem(g, root, m, segSize, Options{})
				for _, h := range segmentedHeuristics() {
					inc := segEngineSchedule(h, sp)
					ref := ScheduleSegmentedReference(h, sp)
					assertSegIdentical(t, h.Name(), inc, ref)
					if err := inc.Validate(sp); err != nil {
						t.Fatalf("%s: %v", h.Name(), err)
					}
				}
			}
		}
	}
}

// TestSegmentedEngineMatchesReferenceRandom extends the golden check to
// seeded random platforms across cluster counts, segment counts, both
// completion models and both random-grid flavours.
func TestSegmentedEngineMatchesReferenceRandom(t *testing.T) {
	const platforms = 20
	for trial := 0; trial < platforms; trial++ {
		r := stats.NewRand(stats.SplitSeed(555, int64(trial)))
		n := 2 + r.Intn(50)
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
			// Below the routing gate the engine is forced directly, so every
			// trial — not just the n >= segEngineMinN majority — tests it.
			inc := segEngineSchedule(h, sp)
			ref := ScheduleSegmentedReference(h, sp)
			assertSegIdentical(t, h.Name(), inc, ref)
			if sp.N >= segEngineMinN {
				assertSegIdentical(t, h.Name()+" (routed)", ScheduleSegmented(h, sp), ref)
			}
		}
	}
}

// TestSegmentedEngineSingleSenderChain pins the lazy re-keying path: a
// degenerate platform where one sender dominates keeps every cached key
// stale, driving receivers past the flat-requery budget into their heaps.
func TestSegmentedEngineSingleSenderChain(t *testing.T) {
	n := 24
	g := topology.RandomGrid(stats.NewRand(42), n)
	for j := 1; j < n; j++ {
		g.Inter[0][j].L = 1e-4
		g.Inter[0][j].G = g.Inter[0][1].G
	}
	sp := MustSegmentedProblem(g, 0, 1<<20, 64<<10, Options{})
	for _, h := range segmentedHeuristics() {
		inc := ScheduleSegmented(h, sp)
		ref := ScheduleSegmentedReference(h, sp)
		assertSegIdentical(t, h.Name(), inc, ref)
	}
}

// TestSegmentedEngineLargeGrid spot-checks one large platform — the regime
// the segmented engine was built for.
func TestSegmentedEngineLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid segmented equivalence is slow with the naive pickers")
	}
	g := topology.RandomGrid(stats.NewRand(7), 160)
	sp := MustSegmentedProblem(g, 3, 4<<20, 256<<10, Options{Overlap: true})
	for _, h := range segmentedHeuristics() {
		assertSegIdentical(t, h.Name(), ScheduleSegmented(h, sp), ScheduleSegmentedReference(h, sp))
	}
}

// TestEnginePoolSegmented checks the pooled segmented path against the
// naive reference across heuristics, roots and repeated reuse of one pool
// — the buffer-recycling contract.
func TestEnginePoolSegmented(t *testing.T) {
	g := topology.Grid5000()
	ep := NewEnginePool()
	for _, m := range []int64{1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			sp := MustSegmentedProblem(g, root, m, 128<<10, Options{})
			for _, h := range segmentedHeuristics() {
				pooled := ep.ScheduleSegmented(h, sp)
				assertSegIdentical(t, h.Name(), pooled, ScheduleSegmentedReference(h, sp))
			}
		}
	}
	// Cross-size reuse on a different platform exercises re-targeting the
	// pooled caches (transposes, heaps) at new matrices and dimensions.
	g2 := topology.RandomGrid(stats.NewRand(12), 40)
	for _, segSize := range []int64{1 << 20, 64 << 10} {
		sp := MustSegmentedProblem(g2, 1, 1<<20, segSize, Options{Overlap: true})
		for _, h := range segmentedHeuristics() {
			assertSegIdentical(t, h.Name(), ep.ScheduleSegmented(h, sp), ScheduleSegmentedReference(h, sp))
		}
	}
}
