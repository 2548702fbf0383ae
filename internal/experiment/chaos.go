package experiment

import (
	"fmt"
	"math"
	"reflect"

	"gridbcast/internal/mpi"
	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// This file is the chaos harness of DESIGN.md §11: it generalises the
// Table-3 jitter generator into a seeded drift-and-fault scenario generator
// and drives it through both robustness paths of the repository —
//
//   - the failure-aware executor (internal/mpi + vnet.FaultPlan): Chaos
//     measures completion rate and degraded makespan as the crash time
//     sweeps across the broadcast, the EXPERIMENTS.md "chaos" section;
//   - the schedule replanner (sched.ScheduleTraced / ReplanSchedule):
//     ChaosReplanSweep checks, per scenario, that absorbing the drift by
//     patch+replay is bit-identical to rebuilding from scratch, and that
//     the replanned schedule executes to its predicted makespan.
//
// Everything is derived from ChaosConfig.Seed through a single stats.NewRand
// stream, so a scenario set replays identically run after run — the only
// randomness in the whole fault pipeline lives here (vnet fault plans are
// themselves deterministic by construction).

// ChaosConfig seeds the chaos harness.
type ChaosConfig struct {
	// Seed drives every random draw of the scenario generator.
	Seed int64
	// N, when > 0, draws a fresh N-cluster Table-2 clustered platform per
	// trial; 0 runs every trial on the paper's GRID5000 platform.
	N int
	// Rho is the drift amplitude: each link-scale factor of a scenario's
	// Delta is uniform in [1-Rho, 1+Rho]. Default 0.5, capped at 0.95 so
	// scales stay positive.
	Rho float64
	// Trials is the number of scenarios (per crash fraction in Chaos).
	// Default 8.
	Trials int
	// CrashFracs is the x-axis of Chaos: the crash times swept, as
	// fractions of the predicted makespan. Default {0.1, 0.25, 0.5,
	// 0.75, 0.9}.
	CrashFracs []float64
	// MsgSize is the broadcast payload. Default 1 MB.
	MsgSize int64
}

func (c ChaosConfig) rho() float64 {
	r := c.Rho
	if r == 0 {
		r = 0.5
	}
	if r > 0.95 {
		r = 0.95
	}
	return r
}

func (c ChaosConfig) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 8
}

func (c ChaosConfig) fracs() []float64 {
	if len(c.CrashFracs) > 0 {
		return c.CrashFracs
	}
	return []float64{0.1, 0.25, 0.5, 0.75, 0.9}
}

func (c ChaosConfig) msgSize() int64 {
	if c.MsgSize > 0 {
		return c.MsgSize
	}
	return 1 << 20
}

// ChaosScenario is one generated trial: a platform, a broadcast (root and
// heuristic), a measured drift and a fault sketch. The sketch is realised
// into a concrete vnet.FaultPlan only once a schedule exists (FaultPlan),
// because crash times and loss links are anchored to scheduled events.
type ChaosScenario struct {
	Index int
	Grid  *topology.Grid
	Root  int
	// Heuristic builds the scenario's schedule (drawn from the traceable
	// ECEF family so the same scenario set also drives the replan sweep).
	Heuristic sched.Heuristic
	// Drift is the single-cluster platform drift of the scenario.
	Drift topology.Delta
	// CrashCluster is the cluster whose coordinator the crash fault kills
	// (never the root).
	CrashCluster int
	// LossDrops is the number of delivery attempts lost on the root's
	// first scheduled wide-area link (0 injects no loss; values beyond
	// the retry budget make the loss permanent and force a re-parent).
	LossDrops int
}

// Scenarios expands the config into its deterministic trial set: the same
// seed always yields the same platforms, roots, drifts and fault sketches.
func (c ChaosConfig) Scenarios() []ChaosScenario {
	r := stats.NewRand(c.Seed)
	rho := c.rho()
	scale := func() float64 { return 1 + rho*(2*r.Float64()-1) }
	fam := sched.ECEFFamily()
	out := make([]ChaosScenario, c.trials())
	for i := range out {
		g := topology.Grid5000()
		if c.N > 0 {
			g = topology.RandomClusteredGrid(r, c.N)
		}
		n := g.N()
		root := r.Intn(n)
		crash := r.Intn(n)
		if crash == root {
			crash = (crash + 1) % n
		}
		drifted := r.Intn(n)
		d := topology.Delta{
			Cluster:     drifted,
			OutGapScale: scale(),
			OutLatScale: scale(),
			InGapScale:  scale(),
			InLatScale:  scale(),
		}
		if r.Intn(3) == 0 {
			d.BcastTime = g.Clusters[drifted].BcastTime * scale()
		}
		out[i] = ChaosScenario{
			Index:        i,
			Grid:         g,
			Root:         root,
			Heuristic:    fam[i%len(fam)],
			Drift:        d,
			CrashCluster: crash,
			LossDrops:    r.Intn(6),
		}
	}
	return out
}

// coordEndpoint is the global endpoint index of cluster c's coordinator
// under the executor's rank layout (clusters laid out in order, coordinator
// first).
func coordEndpoint(g *topology.Grid, c int) int {
	e := 0
	for i := 0; i < c; i++ {
		e += g.Clusters[i].Nodes
	}
	return e
}

// FaultPlan realises the scenario against a concrete plan, given by its
// scheduled transmissions and predicted makespan (whole-message and
// pipelined plans alike):
//
//   - the drift becomes Degrade entries on every wide-area coordinator link
//     touching the drifted cluster, active from time 0 (the drift happened
//     between measuring and running, exactly the paper's §7 situation);
//   - LossDrops becomes a Loss rule on the root's first scheduled link;
//   - crashFrac >= 0 crashes CrashCluster's coordinator at that fraction of
//     the predicted makespan (a negative fraction injects no crash).
func (s ChaosScenario) FaultPlan(events []sched.Event, makespan, crashFrac float64) *vnet.FaultPlan {
	fp := &vnet.FaultPlan{}
	g := s.Grid
	dc := s.Drift.Cluster
	from := coordEndpoint(g, dc)
	for j := 0; j < g.N(); j++ {
		if j == dc {
			continue
		}
		to := coordEndpoint(g, j)
		fp.Degrade = append(fp.Degrade,
			vnet.Degrade{From: from, To: to, GapScale: s.Drift.OutGapScale, LatScale: s.Drift.OutLatScale},
			vnet.Degrade{From: to, To: from, GapScale: s.Drift.InGapScale, LatScale: s.Drift.InLatScale},
		)
	}
	if s.LossDrops > 0 && len(events) > 0 {
		ev := events[0]
		fp.Loss = append(fp.Loss, vnet.Loss{
			From:  coordEndpoint(g, ev.From),
			To:    coordEndpoint(g, ev.To),
			Drops: s.LossDrops,
		})
	}
	if crashFrac >= 0 {
		fp.Crashes = append(fp.Crashes, vnet.Crash{
			Node: coordEndpoint(g, s.CrashCluster),
			At:   crashFrac * makespan,
		})
	}
	return fp
}

// Chaos sweeps the crash time across the broadcast and reports, per crash
// fraction, the mean completion rate (nodes holding the message at the end
// over total nodes) and the mean degraded makespan ratio (measured over
// predicted) across the config's scenarios. Every execution also injects
// the scenario's drift (as link degradation) and loss sketch, so the figure
// shows the executor surviving the full fault cocktail, not crashes in
// isolation.
func Chaos(cfg ChaosConfig) (*Figure, error) {
	scens := cfg.Scenarios()
	fig := &Figure{
		ID:     "chaos",
		Title:  "fault injection: completion and degradation vs crash time",
		XLabel: "crash time (fraction of predicted makespan)",
		YLabel: "ratio",
	}
	rate := Series{Name: "completion rate"}
	ratio := Series{Name: "degraded makespan ratio"}
	for _, frac := range cfg.fracs() {
		var accRate, accRatio stats.Accumulator
		for _, s := range scens {
			p := sched.MustProblem(s.Grid, s.Root, cfg.msgSize(), sched.Options{})
			sc := s.Heuristic.Schedule(p)
			res, err := mpi.ExecuteSchedule(s.Grid, sc, cfg.msgSize(), mpi.Options{
				Net: vnet.Config{Faults: s.FaultPlan(sc.Events, sc.Makespan, frac)},
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: chaos scenario %d (frac %g): %w", s.Index, frac, err)
			}
			accRate.Add(float64(res.NodesReached) / float64(s.Grid.TotalNodes()))
			accRatio.Add(res.Makespan / sc.Makespan)
		}
		rate.Points = append(rate.Points, Point{X: frac, Y: accRate.Mean(), CI: accRate.CI95()})
		ratio.Points = append(ratio.Points, Point{X: frac, Y: accRatio.Mean(), CI: accRatio.CI95()})
	}
	fig.Series = []Series{rate, ratio}
	return fig, nil
}

// ChaosReplanReport summarises a ChaosReplanSweep.
type ChaosReplanReport struct {
	// Scenarios is the number of drift scenarios checked.
	Scenarios int
	// Diverged counts scenarios where the replayed schedule was not
	// bit-identical to a from-scratch rebuild on the drifted platform
	// (the replanning contract demands 0).
	Diverged int
	// MaxExecError is the largest |measured - predicted| makespan gap
	// when executing replanned schedules on the ideal network.
	MaxExecError float64
	// MeanMakespanRatio is the mean drifted-over-original predicted
	// makespan, i.e. how much the drifts actually moved the plans.
	MeanMakespanRatio float64
}

// ChaosReplanSweep drives the config's drift scenarios through the
// replanner: each scenario's schedule is built with a replay trace, the
// drift is applied (topology.ApplyDelta + PatchCosts) and absorbed by
// sched.ReplanSchedule, and the result is compared field-by-field against
// a from-scratch rebuild on the drifted platform, then executed on the
// ideal virtual grid to confirm the measured makespan matches the
// prediction.
func ChaosReplanSweep(cfg ChaosConfig) (*ChaosReplanReport, error) {
	rep := &ChaosReplanReport{}
	var ratios stats.Accumulator
	ep := sched.NewEnginePool()
	for _, s := range cfg.Scenarios() {
		p := sched.MustProblem(s.Grid, s.Root, cfg.msgSize(), sched.Options{})
		sc, tr := sched.ScheduleTraced(ep, s.Heuristic, p)
		if tr == nil {
			return nil, fmt.Errorf("experiment: scenario %d: %s produced no replay trace", s.Index, s.Heuristic.Name())
		}
		ng, err := s.Grid.ApplyDelta(s.Drift)
		if err != nil {
			return nil, fmt.Errorf("experiment: scenario %d: %w", s.Index, err)
		}
		topology.PatchCosts(s.Grid, ng, s.Drift.Cluster)
		pNew := sched.MustProblem(ng, s.Root, cfg.msgSize(), sched.Options{})
		got := sched.ReplanSchedule(pNew, sc, tr, s.Drift.Cluster)
		want := s.Heuristic.Schedule(pNew)
		rep.Scenarios++
		if got == nil || !reflect.DeepEqual(got, want) {
			rep.Diverged++
			continue
		}
		res, err := mpi.ExecuteSchedule(ng, got, cfg.msgSize(), mpi.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiment: scenario %d: executing replanned schedule: %w", s.Index, err)
		}
		if e := math.Abs(res.Makespan - got.Makespan); e > rep.MaxExecError {
			rep.MaxExecError = e
		}
		ratios.Add(got.Makespan / sc.Makespan)
	}
	rep.MeanMakespanRatio = ratios.Mean()
	return rep, nil
}
