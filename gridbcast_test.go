// External test package: the benchmarks import internal/experiment, which
// itself builds on package gridbcast, so in-package tests would cycle.
package gridbcast_test

import (
	"context"
	"math"
	"testing"

	. "gridbcast"
)

// planNamed plans a broadcast of size bytes from root with the named
// heuristic (empty name: best of the paper's heuristics).
func planNamed(t *testing.T, sess *Session, root int, size int64, name string, opts ...Option) *Plan {
	t.Helper()
	opts = append(opts, WithRoot(root), WithSize(size))
	if name != "" {
		h, err := ParseHeuristic(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts = append(opts, WithHeuristic(h))
	}
	plan, err := sess.Plan(NewRequest(opts...))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return plan
}

func TestPredictAndSimulateAgree(t *testing.T) {
	sess := mustSession(t, Grid5000())
	for _, name := range []string{"FlatTree", "ECEF", "ECEF-LAT", "BottomUp", "Mixed"} {
		plan := planNamed(t, sess, 0, 1<<20, name)
		res, err := sess.Execute(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(plan.Makespan-res.Makespan) > 1e-9 {
			t.Errorf("%s: predicted %g != simulated %g", name, plan.Makespan, res.Makespan)
		}
	}
}

func TestPredictUnknownHeuristic(t *testing.T) {
	if _, err := ParseHeuristic("nope"); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestHeuristicNamesResolvable(t *testing.T) {
	names := HeuristicNames()
	if len(names) < 8 {
		t.Fatalf("names = %v", names)
	}
	sess := mustSession(t, Grid5000())
	for _, n := range names {
		planNamed(t, sess, 0, 1<<10, n)
	}
}

func TestRandomGridDeterministic(t *testing.T) {
	a, b := RandomGrid(5, 10), RandomGrid(5, 10)
	if a.Latency(0, 1) != b.Latency(0, 1) {
		t.Error("same seed, different grid")
	}
	if a.N() != 10 {
		t.Errorf("N = %d", a.N())
	}
}

func TestBestIsMinimal(t *testing.T) {
	sess := mustSession(t, RandomGrid(9, 8))
	best := planNamed(t, sess, 0, 1<<20, "")
	for _, h := range Heuristics() {
		plan := planNamed(t, sess, 0, 1<<20, h.Name())
		if best.Makespan > plan.Makespan+1e-12 {
			t.Errorf("best (%g) worse than %s (%g)", best.Makespan, h.Name(), plan.Makespan)
		}
	}
}

func TestSimulateBinomialBaseline(t *testing.T) {
	sess := mustSession(t, Grid5000())
	res, err := sess.ExecuteBinomial(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	best := planNamed(t, sess, 0, 1<<20, "")
	if res.Makespan <= best.Makespan {
		t.Errorf("grid-unaware binomial (%g) should lose to best schedule (%g)",
			res.Makespan, best.Makespan)
	}
}

func TestSimulateWithJitter(t *testing.T) {
	sess := mustSession(t, Grid5000())
	plan := planNamed(t, sess, 0, 1<<20, "ECEF")
	res, err := sess.Execute(plan, NetConfig{Jitter: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == plan.Makespan {
		t.Error("jitter should perturb the measurement")
	}
}

func TestLoadGridMissing(t *testing.T) {
	if _, err := LoadGrid("/nonexistent/grid.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRefineFacade(t *testing.T) {
	sess := mustSession(t, RandomGrid(77, 7))
	plan := planNamed(t, sess, 0, 1<<20, "FlatTree")
	ref, err := sess.Refine(context.Background(), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan > plan.Makespan+1e-12 {
		t.Errorf("refine worsened %g -> %g", plan.Makespan, ref.Makespan)
	}
	bad := &Plan{Root: -1, Size: 1, Schedule: plan.Schedule}
	if _, err := sess.Refine(context.Background(), bad, 0); err == nil {
		t.Error("bad root accepted")
	}
}

func TestSegmentedFacade(t *testing.T) {
	sess := mustSession(t, Grid5000())
	const m = 4 << 20
	plan := planNamed(t, sess, 0, m, "Mixed", WithSegments(256<<10))
	ss := plan.Segmented
	if ss.K != 16 {
		t.Fatalf("K = %d, want 16", ss.K)
	}
	res, err := sess.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-ss.Makespan) > 1e-8 {
		t.Errorf("predicted %g != simulated %g", ss.Makespan, res.Makespan)
	}
}

func TestPipelinedFacadeBeatsUnsegmented(t *testing.T) {
	sess := mustSession(t, Grid5000())
	const m = 16 << 20
	best := planNamed(t, sess, 0, m, "ECEF-LAT", WithPipelined()).Segmented
	unseg := planNamed(t, sess, 0, m, "ECEF-LAT")
	if best.Makespan > unseg.Makespan {
		t.Errorf("pipelined %g worse than unsegmented %g", best.Makespan, unseg.Makespan)
	}
	if best.K < 2 {
		t.Errorf("large message should pick real segmentation, got K=%d", best.K)
	}
}
