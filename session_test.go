package gridbcast_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	gridbcast "gridbcast"
)

func mustPlan(t *testing.T, s *gridbcast.Session, opts ...gridbcast.Option) *gridbcast.Plan {
	t.Helper()
	plan, err := s.Plan(gridbcast.NewRequest(opts...))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func mustSession(t *testing.T, g *gridbcast.Grid) *gridbcast.Session {
	t.Helper()
	s, err := gridbcast.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBestSurfacesWinnerAndCandidates covers the redesign's fix for the old
// Best discarding which heuristic won: the Plan names the winner and lists
// every candidate's makespan.
func TestBestSurfacesWinnerAndCandidates(t *testing.T) {
	g := gridbcast.RandomGrid(9, 12)
	plan := mustPlan(t, mustSession(t, g), gridbcast.WithSize(1<<20))
	if len(plan.Candidates) != len(gridbcast.Heuristics()) {
		t.Fatalf("%d candidates, want %d", len(plan.Candidates), len(gridbcast.Heuristics()))
	}
	if plan.Heuristic != plan.Schedule.Heuristic {
		t.Errorf("plan heuristic %q != schedule heuristic %q", plan.Heuristic, plan.Schedule.Heuristic)
	}
	winner := false
	for i, c := range plan.Candidates {
		if c.Heuristic != gridbcast.Heuristics()[i].Name() {
			t.Errorf("candidate %d is %q, want %q", i, c.Heuristic, gridbcast.Heuristics()[i].Name())
		}
		if c.Makespan < plan.Makespan {
			t.Errorf("candidate %s (%g) beats the adopted plan (%g)", c.Heuristic, c.Makespan, plan.Makespan)
		}
		if c.Heuristic == plan.Heuristic && c.Makespan == plan.Makespan {
			winner = true
		}
	}
	if !winner {
		t.Error("winner missing from the candidate list")
	}
	if plan.Stats.Schedules != len(plan.Candidates) {
		t.Errorf("stats count %d schedules, want %d", plan.Stats.Schedules, len(plan.Candidates))
	}
}

// TestSessionPlanValidation pins the facade-boundary validation: bad roots
// and sizes return descriptive errors (not panics, and not errors from deep
// inside problem construction) from Session.Plan, ExecuteBinomial and
// Refine.
func TestSessionPlanValidation(t *testing.T) {
	g := gridbcast.Grid5000()
	sess := mustSession(t, g)
	bad := []struct {
		name string
		opts []gridbcast.Option
		want string
	}{
		{"negative root", []gridbcast.Option{gridbcast.WithRoot(-1), gridbcast.WithSize(1)}, "root -1 out of range"},
		{"root past end", []gridbcast.Option{gridbcast.WithRoot(g.N()), gridbcast.WithSize(1)}, "out of range"},
		{"negative size", []gridbcast.Option{gridbcast.WithSize(-5)}, "negative message size"},
		{"missing size", nil, "no message size"},
		{"segment size", []gridbcast.Option{gridbcast.WithSize(1 << 20), gridbcast.WithSegments(0)}, "segment size"},
		{"segments and pipelined", []gridbcast.Option{gridbcast.WithSize(1 << 20),
			gridbcast.WithSegments(1 << 10), gridbcast.WithPipelined()}, "mutually exclusive"},
		{"refine on segments", []gridbcast.Option{gridbcast.WithSize(1 << 20),
			gridbcast.WithSegments(1 << 10), gridbcast.WithRefine(1)}, "unsegmented"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sess.Plan(gridbcast.NewRequest(tc.opts...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}

	// The execution and refinement entry points validate the root too.
	if _, err := sess.ExecuteBinomial(-1, 1<<20); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ExecuteBinomial bad root: %v", err)
	}
	sc := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.ECEF), gridbcast.WithSize(1<<10)).Schedule
	badRoot := &gridbcast.Plan{Root: -1, Size: 1 << 10, Schedule: sc}
	if _, err := sess.Refine(context.Background(), badRoot, 0); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Refine bad root: %v", err)
	}
}

// TestSessionPlanConcurrent exercises one Session from many goroutines
// (run under -race in CI): mixed plan modes against a warmed platform must
// match the sequential results exactly.
func TestSessionPlanConcurrent(t *testing.T) {
	g := gridbcast.RandomGrid(3, 24)
	sess := mustSession(t, g)
	reqs := make([]gridbcast.Request, 0, 24)
	for root := 0; root < 8; root++ {
		reqs = append(reqs,
			gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT),
				gridbcast.WithRoot(root), gridbcast.WithSize(1<<20)),
			gridbcast.NewRequest(gridbcast.WithRoot(root), gridbcast.WithSize(1<<20)),
			gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.Mixed),
				gridbcast.WithRoot(root), gridbcast.WithSize(16<<20), gridbcast.WithSegments(1<<20)),
		)
	}
	want := make([]*gridbcast.Plan, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = sess.Plan(req); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, req := range reqs {
				plan, err := sess.Plan(req)
				if err != nil {
					errs[w] = err
					return
				}
				if !reflect.DeepEqual(plan.Schedule, want[i].Schedule) ||
					!reflect.DeepEqual(plan.Segmented, want[i].Segmented) {
					errs[w] = fmt.Errorf("request %d diverged under concurrency", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanContextCancellation covers WithContext: a cancelled context stops
// the pipelined ladder search (and refinement) with the context's error.
func TestPlanContextCancellation(t *testing.T) {
	g := gridbcast.Grid5000()
	sess := mustSession(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := sess.Plan(gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT),
		gridbcast.WithSize(16<<20), gridbcast.WithPipelined(), gridbcast.WithContext(ctx)))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pipelined ladder: got %v, want context.Canceled", err)
	}
	_, err = sess.Plan(gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.FlatTree),
		gridbcast.WithSize(1<<20), gridbcast.WithRefine(0), gridbcast.WithContext(ctx)))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("refine: got %v, want context.Canceled", err)
	}
	base := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.FlatTree), gridbcast.WithSize(1<<20))
	if _, err := sess.Refine(ctx, base, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Session.Refine: got %v, want context.Canceled", err)
	}

	// An un-cancelled context changes nothing: byte-identical to no context.
	plan, err := sess.Plan(gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT),
		gridbcast.WithSize(16<<20), gridbcast.WithPipelined(), gridbcast.WithContext(context.Background())))
	if err != nil {
		t.Fatal(err)
	}
	want := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.ECEFLAT),
		gridbcast.WithSize(16<<20), gridbcast.WithPipelined())
	if !reflect.DeepEqual(plan.Segmented, want.Segmented) {
		t.Error("context-carrying plan diverged from plain plan")
	}
}

// TestPlanBatchDeterministicAcrossGOMAXPROCS pins PlanBatch's determinism
// contract: the plans (schedules, candidates, everything but wall-clock
// stats) are byte-identical at GOMAXPROCS ∈ {1, 2, 8}.
func TestPlanBatchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := gridbcast.RandomGrid(17, 32)
	sess := mustSession(t, g)
	var reqs []gridbcast.Request
	for root := 0; root < 16; root++ {
		reqs = append(reqs,
			gridbcast.NewRequest(gridbcast.WithRoot(root), gridbcast.WithSize(1<<20)),
			gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.Mixed),
				gridbcast.WithRoot(root), gridbcast.WithSize(8<<20), gridbcast.WithSegments(1<<20)))
	}
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		plans, err := sess.PlanBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		for _, p := range plans {
			p.Stats.Duration = 0 // wall-clock, legitimately varies
			fmt.Fprintf(&buf, "%+v\n%+v\n%+v\n", p.Heuristic, p.Schedule, p.Segmented)
			fmt.Fprintf(&buf, "%+v %d %d %g %d\n", p.Candidates, p.SegSize, p.K, p.Makespan, p.Stats.Schedules)
		}
		got := []byte(buf.String())
		if want == nil {
			want = got
			continue
		}
		if string(want) != string(got) {
			t.Fatalf("plans diverge at GOMAXPROCS=%d", procs)
		}
	}

	// Error slots: the batch reports indexed errors and nil plans.
	bad := append(reqs[:2:2], gridbcast.NewRequest(gridbcast.WithRoot(-1), gridbcast.WithSize(1)))
	plans, err := sess.PlanBatch(bad)
	if err == nil || !strings.Contains(err.Error(), "request 2") {
		t.Fatalf("batch error = %v, want indexed failure", err)
	}
	var se *gridbcast.SlotError
	if !errors.As(err, &se) || se.Slot != 2 || !strings.HasPrefix(se.Err.Error(), "gridbcast: root -1") {
		t.Fatalf("batch error holds slot error %+v, want slot 2's root error", se)
	}
	if plans[0] == nil || plans[1] == nil || plans[2] != nil {
		t.Error("batch slots inconsistent with per-request outcomes")
	}
}

// TestRefineKeepsCompletionModel pins the fix for Session.Refine re-timing
// under the wrong model: refining a plan built WithOverlap(true) must
// replay candidates under the overlap model too, so the result is never
// worse than the input plan.
func TestRefineKeepsCompletionModel(t *testing.T) {
	g := gridbcast.RandomGrid(41, 9)
	sess := mustSession(t, g)
	plan := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.FlatTree),
		gridbcast.WithSize(1<<20), gridbcast.WithOverlap(true))
	out, err := sess.Refine(context.Background(), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan > plan.Makespan+1e-12 {
		t.Errorf("refine worsened the overlap-model plan: %g -> %g", plan.Makespan, out.Makespan)
	}
	if plan.Schedule == out.Schedule {
		t.Error("Refine mutated the input plan's schedule pointer")
	}
	// And the WithRefine planning path agrees with Session.Refine.
	inline := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.FlatTree),
		gridbcast.WithSize(1<<20), gridbcast.WithOverlap(true), gridbcast.WithRefine(0))
	if !reflect.DeepEqual(inline.Schedule, out.Schedule) {
		t.Error("WithRefine and Session.Refine disagree on the overlap model")
	}
}

// TestExecuteOverlapPlans pins Plan.Overlap being part of the exported
// surface: overlap-model schedules execute both through the original Plan
// and through a Plan literal that sets Overlap (the DESIGN.md §10 re-wrap
// recipe), where the strict default would fail validation.
func TestExecuteOverlapPlans(t *testing.T) {
	g := gridbcast.Grid5000()
	sess := mustSession(t, g)
	plan := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.Mixed),
		gridbcast.WithSize(4<<20), gridbcast.WithSegments(1<<20), gridbcast.WithOverlap(true))
	if !plan.Overlap {
		t.Fatal("plan does not echo WithOverlap")
	}
	if _, err := sess.Execute(plan); err != nil {
		t.Errorf("original overlap plan: %v", err)
	}
	if _, err := sess.Execute(&gridbcast.Plan{Segmented: plan.Segmented, Overlap: true}); err != nil {
		t.Errorf("re-wrapped overlap plan: %v", err)
	}
	if _, err := sess.Execute(&gridbcast.Plan{Segmented: plan.Segmented}); err == nil {
		t.Error("strict-model execution of an overlap schedule should fail validation")
	}
}

// TestPlanStatsAndExecuteNet covers the remaining plan surface: build stats
// are populated, WithNet is applied by Execute, and an explicit Execute net
// overrides the request's.
func TestPlanStatsAndExecuteNet(t *testing.T) {
	g := gridbcast.Grid5000()
	sess := mustSession(t, g)
	jitter := gridbcast.NetConfig{Jitter: 0.05, Seed: 3}
	plan := mustPlan(t, sess, gridbcast.WithHeuristic(gridbcast.ECEF),
		gridbcast.WithSize(1<<20), gridbcast.WithNet(jitter))
	if plan.Stats.Schedules != 1 || plan.Stats.Duration <= 0 {
		t.Errorf("stats = %+v", plan.Stats)
	}
	res, err := sess.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == plan.Makespan {
		t.Error("request jitter not applied by Execute")
	}
	ideal, err := sess.Execute(plan, gridbcast.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ideal.Makespan-plan.Makespan) > 1e-9 {
		t.Errorf("explicit net override: measured %g != predicted %g", ideal.Makespan, plan.Makespan)
	}
	if _, err := sess.Execute(&gridbcast.Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestScanWorkersCoverSegmentedAndPipelined pins the WithScanWorkers
// contract on the request shapes that used to ignore it: segmented and
// pipelined plans built with a scan pool are byte-identical (wall-clock
// stats aside) to the sequential builds, at several worker counts.
func TestScanWorkersCoverSegmentedAndPipelined(t *testing.T) {
	g := gridbcast.RandomGrid(29, 32) // above the segmented engine's routing gate
	sess := mustSession(t, g)
	base := []gridbcast.Option{
		gridbcast.WithHeuristic(gridbcast.ECEFLAT),
		gridbcast.WithRoot(3), gridbcast.WithSize(4 << 20),
	}
	for _, shape := range [][]gridbcast.Option{
		append(append([]gridbcast.Option{}, base...), gridbcast.WithSegments(256<<10)),
		append(append([]gridbcast.Option{}, base...), gridbcast.WithPipelined()),
	} {
		seq := mustPlan(t, sess, shape...)
		for _, w := range []int{0, 2, 5} {
			par := mustPlan(t, sess, append(append([]gridbcast.Option{}, shape...),
				gridbcast.WithScanWorkers(w))...)
			if !reflect.DeepEqual(par.Segmented, seq.Segmented) {
				t.Fatalf("workers=%d: segmented plan diverges from sequential", w)
			}
			if par.Makespan != seq.Makespan || par.Heuristic != seq.Heuristic {
				t.Fatalf("workers=%d: makespan/heuristic diverge", w)
			}
		}
	}
}
