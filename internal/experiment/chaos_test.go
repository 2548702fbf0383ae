package experiment

import (
	"reflect"
	"testing"

	"gridbcast/internal/mpi"
	"gridbcast/internal/sched"
	"gridbcast/internal/vnet"
)

func mustProblem(t *testing.T, s ChaosScenario) *sched.Problem {
	t.Helper()
	return sched.MustProblem(s.Grid, s.Root, 1<<20, sched.Options{})
}

// executeChaos runs one scenario's schedule under its realised fault plan.
func executeChaos(t *testing.T, cfg ChaosConfig, s ChaosScenario, sc *sched.Schedule, frac float64) *mpi.Result {
	t.Helper()
	res, err := mpi.ExecuteSchedule(s.Grid, sc, cfg.msgSize(), mpi.Options{
		Net: vnet.Config{Faults: s.FaultPlan(sc.Events, sc.Makespan, frac)},
	})
	if err != nil {
		t.Fatalf("scenario %d: %v", s.Index, err)
	}
	return res
}

// TestChaosScenariosDeterministic: the scenario generator is a pure
// function of its config — same seed, same trials, field for field.
func TestChaosScenariosDeterministic(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, Trials: 6, N: 5}
	a, b := cfg.Scenarios(), cfg.Scenarios()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different scenario sets")
	}
	other := ChaosConfig{Seed: 43, Trials: 6, N: 5}.Scenarios()
	same := true
	for i := range a {
		if a[i].Root != other[i].Root || a[i].Drift != other[i].Drift ||
			a[i].CrashCluster != other[i].CrashCluster || a[i].LossDrops != other[i].LossDrops {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenario sets")
	}
	for i, s := range a {
		if s.Grid == nil || s.Heuristic == nil {
			t.Fatalf("scenario %d incomplete: %+v", i, s)
		}
		n := s.Grid.N()
		if s.Root < 0 || s.Root >= n || s.CrashCluster == s.Root ||
			s.CrashCluster < 0 || s.CrashCluster >= n {
			t.Fatalf("scenario %d: bad root/crash draw: %+v", i, s)
		}
		if err := s.Drift.Validate(n); err != nil {
			t.Fatalf("scenario %d: invalid drift: %v", i, err)
		}
	}
}

// TestChaosReplanSweep: across seeded drift scenarios on GRID5000 and on
// random clustered platforms, patch+replay equals the from-scratch rebuild
// and the replanned schedules execute to their predicted makespans.
func TestChaosReplanSweep(t *testing.T) {
	for _, cfg := range []ChaosConfig{
		{Seed: 7, Trials: 6},
		{Seed: 11, Trials: 6, N: 6, Rho: 0.8},
	} {
		rep, err := ChaosReplanSweep(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if rep.Scenarios != cfg.Trials {
			t.Errorf("%+v: checked %d scenarios, want %d", cfg, rep.Scenarios, cfg.Trials)
		}
		if rep.Diverged != 0 {
			t.Errorf("%+v: %d/%d scenarios diverged from rebuild", cfg, rep.Diverged, rep.Scenarios)
		}
		if rep.MaxExecError > 1e-9 {
			t.Errorf("%+v: replanned execution off prediction by %g", cfg, rep.MaxExecError)
		}
		if rep.MeanMakespanRatio <= 0 {
			t.Errorf("%+v: nonsensical makespan ratio %g", cfg, rep.MeanMakespanRatio)
		}
	}
}

// TestChaosExecutorDegradation: crash scenarios terminate (no hang, no
// error) with partial completion honestly reported.
func TestChaosExecutorDegradation(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, Trials: 4, CrashFracs: []float64{0.1}}
	for _, s := range cfg.Scenarios() {
		p := mustProblem(t, s)
		sc := s.Heuristic.Schedule(p)
		res := executeChaos(t, cfg, s, sc, 0.1)
		total := s.Grid.TotalNodes()
		if res.NodesReached <= 0 || res.NodesReached > total {
			t.Errorf("scenario %d: reached %d of %d nodes", s.Index, res.NodesReached, total)
		}
		if len(res.Completed) != s.Grid.N() {
			t.Errorf("scenario %d: Completed has %d entries, want %d", s.Index, len(res.Completed), s.Grid.N())
		}
		// An early coordinator crash leaves that cluster incomplete.
		if res.Completed[s.CrashCluster] && s.Grid.Clusters[s.CrashCluster].Nodes > 1 {
			t.Errorf("scenario %d: crashed cluster %d reported complete", s.Index, s.CrashCluster)
		}
		// Without the crash, degradation and loss alone must not lose nodes:
		// retries and re-parenting deliver everywhere eventually.
		if full := executeChaos(t, cfg, s, sc, -1); full.NodesReached != total {
			t.Errorf("scenario %d: crash-free run reached %d of %d nodes", s.Index, full.NodesReached, total)
		}
	}
}

// TestChaosFigure: the figure carries exactly the two EXPERIMENTS.md series
// with one point per crash fraction, rates in [0,1] and ratios positive.
func TestChaosFigure(t *testing.T) {
	cfg := ChaosConfig{Seed: 5, Trials: 3, N: 5, CrashFracs: []float64{0.25, 0.75}}
	fig, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("figure has %d series, want 2", len(fig.Series))
	}
	rate := fig.SeriesByName("completion rate")
	ratio := fig.SeriesByName("degraded makespan ratio")
	if rate == nil || ratio == nil {
		t.Fatalf("missing series: %+v", fig.Series)
	}
	if len(rate.Points) != len(cfg.CrashFracs) || len(ratio.Points) != len(cfg.CrashFracs) {
		t.Fatalf("series have %d/%d points, want %d", len(rate.Points), len(ratio.Points), len(cfg.CrashFracs))
	}
	for i, p := range rate.Points {
		if p.X != cfg.CrashFracs[i] || p.Y < 0 || p.Y > 1 {
			t.Errorf("completion rate point %d out of range: %+v", i, p)
		}
	}
	for i, p := range ratio.Points {
		if p.X != cfg.CrashFracs[i] || p.Y <= 0 {
			t.Errorf("makespan ratio point %d out of range: %+v", i, p)
		}
	}
	// Later crashes reach at least as many nodes as earlier ones.
	if rate.Points[1].Y < rate.Points[0].Y {
		t.Errorf("completion rate fell with a later crash: %+v", rate.Points)
	}
}

// TestChaosPipelinedPlans runs the scenario set on pipelined plans (1 MiB
// in 128 KiB segments, streaming local phases where the model prefers
// them) under the same fault plans: every run terminates with an honest
// report, an early crash leaves its cluster incomplete, and without the
// crash drift and loss lose no node.
func TestChaosPipelinedPlans(t *testing.T) {
	for _, cfg := range []ChaosConfig{{Seed: 3, Trials: 4}, {Seed: 5, Trials: 4, N: 6}} {
		for _, s := range cfg.Scenarios() {
			sp := sched.MustSegmentedProblem(s.Grid, s.Root, cfg.msgSize(), 128<<10, sched.Options{SegmentedLocal: true})
			ss := sched.ScheduleSegmented(s.Heuristic, sp)
			run := func(frac float64) *mpi.Result {
				res, err := mpi.ExecuteSegmentedSchedule(s.Grid, ss, mpi.Options{
					Net: vnet.Config{Faults: s.FaultPlan(ss.Events, ss.Makespan, frac)},
				})
				if err != nil {
					t.Fatalf("seed %d scenario %d (crash at %g): %v", cfg.Seed, s.Index, frac, err)
				}
				return res
			}
			total := s.Grid.TotalNodes()
			res := run(0.1)
			if res.NodesReached <= 0 || res.NodesReached > total {
				t.Errorf("seed %d scenario %d: reached %d of %d nodes", cfg.Seed, s.Index, res.NodesReached, total)
			}
			if res.Completed[s.CrashCluster] && s.Grid.Clusters[s.CrashCluster].Nodes > 1 {
				t.Errorf("seed %d scenario %d: crashed cluster %d reported complete", cfg.Seed, s.Index, s.CrashCluster)
			}
			if full := run(-1); full.NodesReached != total {
				t.Errorf("seed %d scenario %d: crash-free run reached %d of %d nodes", cfg.Seed, s.Index, full.NodesReached, total)
			}
		}
	}
}
