package sched

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// segmentedHeuristics is every heuristic with a native segmented picker.
func segmentedHeuristics() []Heuristic {
	return append(append([]Heuristic{}, Paper()...), Mixed{}, FEF{Weight: WeightFull})
}

// assertSegmentedMatchesUnsegmented checks that a one-segment pipelined
// schedule is bit-identical to the unsegmented schedule: same events (exact
// floats), same RT/Idle/Completion/Makespan, and FirstRT == RT.
func assertSegmentedMatchesUnsegmented(t *testing.T, label string, ss *SegmentedSchedule, sc *Schedule) {
	t.Helper()
	if ss.K != 1 {
		t.Fatalf("%s: K = %d, want 1", label, ss.K)
	}
	if !reflect.DeepEqual(ss.Events, sc.Events) {
		t.Fatalf("%s: events diverge\nsegmented:   %+v\nunsegmented: %+v", label, ss.Events, sc.Events)
	}
	if !reflect.DeepEqual(ss.RT, sc.RT) || !reflect.DeepEqual(ss.FirstRT, sc.RT) {
		t.Fatalf("%s: RT diverges", label)
	}
	if !reflect.DeepEqual(ss.Idle, sc.Idle) || !reflect.DeepEqual(ss.Completion, sc.Completion) {
		t.Fatalf("%s: idle/completion diverge", label)
	}
	if ss.Makespan != sc.Makespan {
		t.Fatalf("%s: makespan %v != %v", label, ss.Makespan, sc.Makespan)
	}
}

// TestSegmentedOneSegmentGoldenGrid5000 pins the golden property on the
// paper's platform: with a single segment every heuristic's segmented
// schedule equals its unsegmented one bit for bit, at several sizes and
// every root. Both builds run the one engine, so the naive Reference
// pickers are the expected side of both.
func TestSegmentedOneSegmentGoldenGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			p := MustProblem(g, root, m, Options{})
			sp := MustSegmentedProblem(g, root, m, m, Options{})
			for _, h := range segmentedHeuristics() {
				ref := Reference{Base: h}.Schedule(p)
				assertIdentical(t, h.Name(), h.Schedule(p), ref)
				ss := ScheduleSegmented(h, sp)
				assertSegmentedMatchesUnsegmented(t, h.Name(), ss, ref)
				if err := ss.Validate(sp); err != nil {
					t.Fatalf("%s: %v", h.Name(), err)
				}
			}
		}
	}
}

// TestSegmentedOneSegmentGoldenRandom extends the golden check to seeded
// random platforms, both completion models, and segment sizes >= the
// message (which must also collapse to one segment).
// The naive Reference pickers are the expected side.
func TestSegmentedOneSegmentGoldenRandom(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		r := stats.NewRand(stats.SplitSeed(1234, int64(trial)))
		n := 2 + r.Intn(40)
		g := topology.RandomGrid(r, n)
		m := int64(1 << 20)
		opt := Options{Overlap: trial%2 == 0}
		p := MustProblem(g, trial%n, m, opt)
		segSize := m
		if trial%3 == 0 {
			segSize = m + 17 // larger than the message: still one segment
		}
		sp := MustSegmentedProblem(g, trial%n, m, segSize, opt)
		for _, h := range segmentedHeuristics() {
			ref := Reference{Base: h}.Schedule(p)
			assertIdentical(t, h.Name(), h.Schedule(p), ref)
			assertSegmentedMatchesUnsegmented(t, h.Name(), ScheduleSegmented(h, sp), ref)
		}
	}
}

// TestSegmentedProblemShape pins segment arithmetic: counts, remainder
// segment, and the K == 1 aliasing of the full-message matrices.
func TestSegmentedProblemShape(t *testing.T) {
	g := topology.Grid5000()
	sp := MustSegmentedProblem(g, 0, 10<<20, 3<<20, Options{})
	if sp.K != 4 || sp.SegSize != 3<<20 || sp.LastSize != 1<<20 {
		t.Fatalf("K=%d seg=%d last=%d", sp.K, sp.SegSize, sp.LastSize)
	}
	sp1 := MustSegmentedProblem(g, 0, 1<<20, 1<<30, Options{})
	if sp1.K != 1 || sp1.SegSize != 1<<20 || sp1.LastSize != 1<<20 {
		t.Fatalf("oversized segment: K=%d seg=%d last=%d", sp1.K, sp1.SegSize, sp1.LastSize)
	}
	if &sp1.Gl[0][0] != &sp1.G[0][0] || sp1.last != sp1.costs {
		t.Fatal("K == 1 must alias the full-message matrices and cost entry")
	}
	if _, err := NewSegmentedProblem(g, 0, 1<<20, 0, Options{}); err == nil {
		t.Fatal("zero segment size accepted")
	}
	// The exact state is O(N·K): segment counts beyond MaxSegments must be
	// rejected at construction, not discovered as an allocation blowup.
	if _, err := NewSegmentedProblem(g, 0, 16<<20, 1, Options{}); err == nil {
		t.Fatal("1-byte segments of a 16 MB message accepted (K way beyond MaxSegments)")
	}
	if _, err := NewSegmentedProblem(g, 0, 16<<20, (16<<20)/MaxSegments, Options{}); err != nil {
		t.Fatalf("K == MaxSegments rejected: %v", err)
	}
	even := MustSegmentedProblem(g, 0, 1<<20, 1<<18, Options{})
	if even.K != 4 || even.LastSize != 1<<18 {
		t.Fatalf("even split: K=%d last=%d", even.K, even.LastSize)
	}
}

// TestEvaluateSegmentedMatchesSchedule checks that re-timing a segmented
// schedule's pair sequence reproduces it exactly (the evaluator and the
// greedy share one timing engine).
func TestEvaluateSegmentedMatchesSchedule(t *testing.T) {
	g := topology.Grid5000()
	sp := MustSegmentedProblem(g, 0, 4<<20, 128<<10, Options{})
	for _, h := range segmentedHeuristics() {
		ss := ScheduleSegmented(h, sp)
		re := EvaluateSegmented(sp, ss.Pairs())
		re.Heuristic = ss.Heuristic
		if !reflect.DeepEqual(ss, re) {
			t.Fatalf("%s: evaluator diverges from schedule", h.Name())
		}
	}
}

// TestSegmentedValidate exercises the validator's failure modes.
func TestSegmentedValidate(t *testing.T) {
	g := topology.Grid5000()
	sp := MustSegmentedProblem(g, 0, 4<<20, 256<<10, Options{})
	ss := ScheduleSegmented(Mixed{}, sp)
	if err := ss.Validate(sp); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	other := MustSegmentedProblem(g, 0, 4<<20, 128<<10, Options{})
	if err := ss.Validate(other); err == nil {
		t.Fatal("segment-size mismatch accepted")
	}
	bad := *ss
	bad.Makespan *= 2
	if err := bad.Validate(sp); err == nil {
		t.Fatal("corrupted makespan accepted")
	}
	crossed := *ss
	crossed.Events = append([]Event(nil), ss.Events...)
	// Receiver of round 0 becomes a sender before holding the message.
	crossed.Events[0].From, crossed.Events[0].To = ss.Events[0].To, ss.Events[0].From
	if err := crossed.Validate(sp); err == nil {
		t.Fatal("invalid broadcast order accepted")
	}
}

// segmentOverheadBound is the model's per-segment overhead bound for a fixed
// tree: re-timing any unsegmented tree under K segments can cost at most
// (N-1) times the worst per-edge gap inflation (K-1)·g(s) + g(last) - g(m),
// because every event's shift is the sum of inflations along its dependency
// chain. Pipelining can only start transmissions earlier, never later.
func segmentOverheadBound(sp *SegmentedProblem, events []Event) float64 {
	var worst float64
	for _, e := range events {
		d := float64(sp.K-1)*sp.Gs[e.From][e.To] + sp.Gl[e.From][e.To] - sp.G[e.From][e.To]
		if d > worst {
			worst = d
		}
	}
	return float64(sp.N-1) * worst
}

// TestSegmentedOverheadBound is the analytic half of the property: for every
// heuristic tree, random platform and segment count, the segmented makespan
// of the same tree stays within the per-segment overhead bound of the
// unsegmented makespan. (The simulated half lives in internal/mpi.)
func TestSegmentedOverheadBound(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		r := stats.NewRand(stats.SplitSeed(777, int64(trial)))
		n := 3 + r.Intn(20)
		var g *topology.Grid
		if trial%2 == 0 {
			g = topology.RandomGrid(r, n)
		} else {
			g = topology.RandomSizedGrid(r, n)
		}
		m := int64(1 << 20)
		opt := Options{Overlap: trial%3 == 0}
		p := MustProblem(g, 0, m, opt)
		for _, segSize := range []int64{m / 2, m / 7, m / 32} {
			sp := MustSegmentedProblem(g, 0, m, segSize, opt)
			for _, h := range Paper() {
				sc := h.Schedule(p)
				ss := EvaluateSegmented(sp, pairsOf(sc))
				bound := segmentOverheadBound(sp, sc.Events)
				if ss.Makespan > sc.Makespan+bound+1e-9 {
					t.Fatalf("trial %d %s seg=%d: segmented %g exceeds unsegmented %g + bound %g",
						trial, h.Name(), segSize, ss.Makespan, sc.Makespan, bound)
				}
			}
		}
	}
}

// TestPipelinedNeverWorse pins the ladder contract: the unsegmented size is
// always a candidate, so Pipelined.BestContext is never worse than its base
// heuristic.
func TestPipelinedNeverWorse(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 16 << 20} {
		p := MustProblem(g, 0, m, Options{})
		for _, h := range []Heuristic{Mixed{}, ECEFLAT(), FlatTree{}} {
			best, err := Pipelined{Base: h}.BestContext(context.Background(), NewEnginePool(), g, 0, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if unseg := h.Schedule(p).Makespan; best.Makespan > unseg+1e-12 {
				t.Fatalf("%s at %d bytes: pipelined %g worse than unsegmented %g",
					h.Name(), m, best.Makespan, unseg)
			}
			if best.Heuristic != "Pipelined-"+h.Name() {
				t.Fatalf("name = %q", best.Heuristic)
			}
		}
	}
}

// TestPipelinedBeatsUnsegmentedLargeMessage validates the workload the
// subsystem opens: for large messages on the paper's GRID5000 platform,
// segmentation beats EVERY unsegmented heuristic (the single-shot model
// cannot overlap wide-area hops, pipelining can).
func TestPipelinedBeatsUnsegmentedLargeMessage(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{4 << 20, 16 << 20} {
		p := MustProblem(g, 0, m, Options{})
		bestUnseg := math.Inf(1)
		for _, h := range Paper() {
			if span := h.Schedule(p).Makespan; span < bestUnseg {
				bestUnseg = span
			}
		}
		best, err := Pipelined{}.BestContext(context.Background(), NewEnginePool(), g, 0, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if best.Makespan >= bestUnseg {
			t.Fatalf("%d bytes: pipelined %g does not beat best unsegmented %g", m, best.Makespan, bestUnseg)
		}
		if best.K < 2 {
			t.Fatalf("%d bytes: winning schedule is unsegmented (K=%d)", m, best.K)
		}
	}
}

// TestDefaultSegmentLadder pins the ladder shape: unsegmented first, then
// descending powers of two, bounded by MaxSegments.
func TestDefaultSegmentLadder(t *testing.T) {
	ladder := DefaultSegmentLadder(16 << 20)
	if ladder[0] != 16<<20 {
		t.Fatalf("ladder starts with %d", ladder[0])
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] >= 16<<20 || (i > 1 && ladder[i] != ladder[i-1]/2) {
			t.Fatalf("ladder[%d] = %d", i, ladder[i])
		}
		if k := (16<<20 + ladder[i] - 1) / ladder[i]; k > MaxSegments {
			t.Fatalf("ladder entry %d induces %d segments", ladder[i], k)
		}
	}
	if got := DefaultSegmentLadder(1024); len(got) != 1 || got[0] != 1024 {
		t.Fatalf("small-message ladder = %v", got)
	}
}

// TestSegmentCountRejectedBeforeCosting: a segment count over MaxSegments,
// including one whose ceil(m/s) would overflow int64 near MaxInt64, is
// refused without costing the grid, and the ladder of a 2⁶³−1-byte message
// is the unsegmented rung alone.
func TestSegmentCountRejectedBeforeCosting(t *testing.T) {
	if got := DefaultSegmentLadder(math.MaxInt64); len(got) != 1 || got[0] != math.MaxInt64 {
		t.Fatalf("ladder of a MaxInt64-byte message = %v", got)
	}
	g := topology.Grid5000()
	for _, tc := range []struct{ m, seg int64 }{{1 << 20, 1}, {math.MaxInt64, 2}, {math.MaxInt64, 4096}} {
		if _, err := NewSegmentedProblem(g, 0, tc.m, tc.seg, Options{}); err == nil {
			t.Errorf("%d-byte segments of %d bytes accepted", tc.seg, tc.m)
		}
	}
	if st := g.CostStats(); st.Sizes != 0 {
		t.Errorf("rejected segmentations costed %d sizes", st.Sizes)
	}
}
