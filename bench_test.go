// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// and table, plus micro-benchmarks and the ablations listed in DESIGN.md §5.
//
// The figure benchmarks run reduced Monte-Carlo sizes per op so `go test
// -bench=.` stays tractable; cmd/simfigs runs the full 10000-iteration
// studies. Quality metrics (mean makespans, hit counts) are attached via
// b.ReportMetric so the paper's orderings are visible straight from the
// bench output.
package gridbcast_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/experiment"
	"gridbcast/internal/intracluster"
	"gridbcast/internal/mpi"
	"gridbcast/internal/plogp"
	"gridbcast/internal/sched"
	"gridbcast/internal/sim"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// benchMC is the reduced Monte-Carlo configuration used per benchmark op.
func benchMC() experiment.MonteCarlo {
	return experiment.MonteCarlo{Iterations: 100, Seed: 42, Workers: 1}
}

// BenchmarkFig1 regenerates Figure 1 (mean completion, 2–10 clusters).
func BenchmarkFig1(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = benchMC().Fig1()
	}
	reportSeries(b, fig, "FlatTree", "ECEF-LA")
}

// BenchmarkFig2 regenerates Figure 2 (mean completion, 5–50 clusters).
func BenchmarkFig2(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = benchMC().Fig2()
	}
	reportSeries(b, fig, "FlatTree", "ECEF")
}

// BenchmarkFig3 regenerates Figure 3 (ECEF family close-up).
func BenchmarkFig3(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = benchMC().Fig3()
	}
	reportSeries(b, fig, "ECEF", "ECEF-LAT")
}

// BenchmarkFig4 regenerates Figure 4 (hit rates vs the global minimum).
func BenchmarkFig4(b *testing.B) {
	var fig *experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = benchMC().Fig4()
	}
	if s := fig.SeriesByName("ECEF-LAT"); s != nil {
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, "LAT-hits@50")
	}
	if s := fig.SeriesByName("ECEF"); s != nil {
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, "ECEF-hits@50")
	}
}

// BenchmarkFig5 regenerates Figure 5 (predicted time vs message size,
// 88-machine grid).
func BenchmarkFig5(b *testing.B) {
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Fig5(experiment.PracticalConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, fig, "FlatTree", "flat@4.5MB")
	reportLastPoint(b, fig, "ECEF", "ecef@4.5MB")
}

// BenchmarkFig6 regenerates Figure 6 (measured time vs message size,
// including the grid-unaware binomial). Fewer sizes per op: each point
// simulates all 88 machines message-by-message.
func BenchmarkFig6(b *testing.B) {
	cfg := experiment.PracticalConfig{Sizes: []int64{1 << 20, 4 << 20}}
	var fig *experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiment.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, fig, "Default LAM", "lam@4MB")
	reportLastPoint(b, fig, "ECEF-LAT", "lat@4MB")
}

// BenchmarkTable3 regenerates Table 3 (Lowekamp clustering of 88 machines)
// with ±0.5% measurement jitter. The jitter is kept below the platform's
// own margin: the Orsay-a/Orsay-b boundary sits only 0.57% inside the
// ρ=30% tolerance (62.10 µs vs 1.3057·47.56 µs), so at ±1% a small
// fraction of random matrices legitimately merge the two clusters — a
// knife-edge of the paper's chosen tolerance, not of the algorithm
// (verified robust at ±0.5% across 1000 seeds; see EXPERIMENTS.md).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table3(0.3, 0.005, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.MatchesPaper {
			b.Fatalf("partition diverged from Table 3 at seed %d", i)
		}
	}
}

// BenchmarkScheduler measures schedule-construction cost per heuristic and
// cluster count — the §7 concern that elaborate heuristics (ECEF-LAT) add
// scheduling overhead to MPI_Bcast.
func BenchmarkScheduler(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		p := sched.MustProblem(topology.RandomGrid(stats.NewRand(1), n), 0, 1<<20, sched.Options{})
		for _, h := range sched.Paper() {
			b.Run(fmt.Sprintf("%s/n=%d", h.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.Schedule(p)
				}
			})
		}
	}
}

// BenchmarkAblationFEFWeight compares FEF's two edge weights (paper default
// latency-only vs full g+L) by mean makespan at 20 clusters.
func BenchmarkAblationFEFWeight(b *testing.B) {
	for _, h := range []sched.Heuristic{sched.FEF{}, sched.FEF{Weight: sched.WeightFull}} {
		b.Run(h.Name(), func(b *testing.B) {
			var acc stats.Accumulator
			for i := 0; i < b.N; i++ {
				r := stats.NewRand(stats.SplitSeed(7, int64(i)))
				p := sched.MustProblem(topology.RandomGrid(r, 20), 0, 1<<20, sched.Options{Overlap: true})
				acc.Add(h.Schedule(p).Makespan)
			}
			b.ReportMetric(acc.Mean(), "mean-makespan-s")
		})
	}
}

// BenchmarkAblationOverlap compares the two completion models (§3 strict
// vs §5.2 overlap) on the ECEF-LAT heuristic.
func BenchmarkAblationOverlap(b *testing.B) {
	for _, overlap := range []bool{false, true} {
		b.Run(fmt.Sprintf("overlap=%v", overlap), func(b *testing.B) {
			var acc stats.Accumulator
			for i := 0; i < b.N; i++ {
				r := stats.NewRand(stats.SplitSeed(11, int64(i)))
				p := sched.MustProblem(topology.RandomGrid(r, 20), 0, 1<<20, sched.Options{Overlap: overlap})
				acc.Add(sched.ECEFLAT().Schedule(p).Makespan)
			}
			b.ReportMetric(acc.Mean(), "mean-makespan-s")
		})
	}
}

// BenchmarkAblationSymmetry compares independent vs symmetric random link
// draws (the paper does not specify which it uses).
func BenchmarkAblationSymmetry(b *testing.B) {
	for _, sym := range []bool{false, true} {
		b.Run(fmt.Sprintf("symmetric=%v", sym), func(b *testing.B) {
			mc := experiment.MonteCarlo{Iterations: 50, Seed: 3, Workers: 1, Symmetric: sym}
			var fig *experiment.Figure
			for i := 0; i < b.N; i++ {
				fig = mc.Fig3()
			}
			reportLastPoint(b, fig, "ECEF-LAT", "lat@50")
		})
	}
}

// BenchmarkOptimalSearch measures the branch-and-bound exhaustive search,
// the reason the paper resorts to the "global minimum" reference. The
// transposition table with dominance pruning makes 9–11 clusters routine
// (the plain bound search stopped being tractable at 9).
func BenchmarkOptimalSearch(b *testing.B) {
	for _, n := range []int{7, 9, 11} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := sched.MustProblem(topology.RandomGrid(stats.NewRand(2), n), 0, 1<<20, sched.Options{})
			for i := 0; i < b.N; i++ {
				sched.Optimal{}.Schedule(p)
			}
		})
	}
}

// BenchmarkLargeGrid measures end-to-end schedule construction on large
// random platforms (Table 2 distribution) — the production-scale regime the
// incremental engine targets, far beyond the paper's 50-cluster ceiling.
func BenchmarkLargeGrid(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		p := sched.MustProblem(topology.RandomGrid(stats.NewRand(1), n), 0, 1<<20, sched.Options{Overlap: true})
		for _, h := range sched.Paper() {
			b.Run(fmt.Sprintf("%s/n=%d", h.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.Schedule(p)
				}
			})
		}
	}
}

// BenchmarkEdgeCosts measures costing a message size the platform has not
// seen, on the daemon's random:7:128 platform: "full" derives G and WT
// (what an unsegmented ECEF-family build reads), "g-only" G alone (what a
// ladder rung reads at its segment size). Every op costs a new size, so the
// store's byte budget evicts as the run goes on, as a stream of distinct
// request sizes would.
func BenchmarkEdgeCosts(b *testing.B) {
	g := topology.RandomGrid(stats.NewRand(7), 128)
	m := int64(1 << 20)
	for _, full := range []bool{true, false} {
		name := "g-only"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m++
				ec := g.EdgeCosts(m)
				if full {
					ec.WT()
				}
			}
		})
	}
}

// BenchmarkEngineVsReference compares the incremental engine against the
// retained naive pickers at 128 clusters; the `engine` and `reference`
// sub-benchmarks are the before/after pair tracked by the perf trajectory.
func BenchmarkEngineVsReference(b *testing.B) {
	p := sched.MustProblem(topology.RandomGrid(stats.NewRand(1), 128), 0, 1<<20, sched.Options{})
	for _, h := range sched.Paper() {
		b.Run(fmt.Sprintf("engine/%s", h.Name()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Schedule(p)
			}
		})
		b.Run(fmt.Sprintf("reference/%s", h.Name()), func(b *testing.B) {
			ref := sched.Reference{Base: h}
			for i := 0; i < b.N; i++ {
				ref.Schedule(p)
			}
		})
	}
}

// BenchmarkIntraTrees compares the intra-cluster broadcast tree shapes for
// a 64-node cluster (DESIGN.md §5 ablation).
func BenchmarkIntraTrees(b *testing.B) {
	params := plogp.FromBandwidth(5e-5, 5e-5, 100e6)
	for _, shape := range intracluster.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t = intracluster.Predict(shape, 64, params, 1<<20)
			}
			b.ReportMetric(t, "predicted-T-s")
		})
	}
}

// BenchmarkMPIExecution measures one full 88-machine message-level
// execution of an ECEF-LAT schedule.
func BenchmarkMPIExecution(b *testing.B) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpi.ExecuteSchedule(g, sc, 1<<20, mpi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefine measures the local-search improver (DESIGN.md §5): cost
// of refinement and the quality it buys over raw ECEF-LA at 8 clusters.
func BenchmarkRefine(b *testing.B) {
	for _, refine := range []bool{false, true} {
		name := "raw"
		if refine {
			name = "refined"
		}
		b.Run(name, func(b *testing.B) {
			var acc stats.Accumulator
			for i := 0; i < b.N; i++ {
				r := stats.NewRand(stats.SplitSeed(13, int64(i)))
				p := sched.MustProblem(topology.RandomGrid(r, 8), 0, 1<<20, sched.Options{})
				var sc *sched.Schedule
				if refine {
					sc = sched.Refined{Base: sched.ECEFLA()}.Schedule(p)
				} else {
					sc = sched.ECEFLA().Schedule(p)
				}
				acc.Add(sc.Makespan)
			}
			b.ReportMetric(acc.Mean(), "mean-makespan-s")
		})
	}
}

// BenchmarkRootRotation quantifies §4.1's remark that the flat tree is
// fragile when applications rotate the broadcast root: reported metric is
// the relative spread (max/min) of the makespan across the six possible
// root clusters of the Table 3 grid.
func BenchmarkRootRotation(b *testing.B) {
	g := topology.Grid5000()
	for _, h := range []sched.Heuristic{sched.FlatTree{}, sched.ECEFLAT()} {
		b.Run(h.Name(), func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				lo, hi := 0.0, 0.0
				for root := 0; root < g.N(); root++ {
					p := sched.MustProblem(g, root, 1<<20, sched.Options{})
					m := h.Schedule(p).Makespan
					if root == 0 || m < lo {
						lo = m
					}
					if m > hi {
						hi = m
					}
				}
				spread = hi / lo
			}
			b.ReportMetric(spread, "max/min")
		})
	}
}

// BenchmarkSegmentedSchedule measures segment-aware schedule construction
// (exact per-segment timing included) on the 88-machine grid at 16 MB / 128
// segments, plus the quality it buys: the makespan ratio against the best
// unsegmented heuristic (< 1 means the pipelined workload wins).
func BenchmarkSegmentedSchedule(b *testing.B) {
	g := topology.Grid5000()
	const m = 16 << 20
	sp := sched.MustSegmentedProblem(g, 0, m, 128<<10, sched.Options{})
	b.ResetTimer()
	var ss *sched.SegmentedSchedule
	for i := 0; i < b.N; i++ {
		ss = sched.ScheduleSegmented(sched.Mixed{}, sp)
	}
	b.StopTimer()
	p := sched.MustProblem(g, 0, m, sched.Options{})
	best, _ := sched.BestOf(sched.Paper(), p)
	b.ReportMetric(ss.Makespan/best.Makespan, "vs-unseg")
}

// BenchmarkPipelinedLadder measures the full segment-size ladder search
// (DefaultSegmentLadder, 12 candidates at 16 MB) behind
// Pipelined.BestContext, on one engine pool held across searches as a
// Session holds its pools. n=6 is GRID5000, the paper's platform; n=128 is
// the daemon's random:7:128 platform, where the incumbent cut abandons
// most rungs; n=512 is the large-grid tip. Every row builds through the
// incremental engine. One untimed ladder first fills the pool's lookahead
// templates and transposes and the grid's cost store, so every row times
// warm searches whatever -benchtime is.
func BenchmarkPipelinedLadder(b *testing.B) {
	for _, g := range []*topology.Grid{
		topology.Grid5000(),
		topology.RandomGrid(stats.NewRand(7), 128),
		topology.RandomGrid(stats.NewRand(1), 512),
	} {
		b.Run(fmt.Sprintf("n=%d", g.N()), func(b *testing.B) {
			ep := sched.NewEnginePool()
			ladder := func() {
				if _, err := (sched.Pipelined{}).BestContext(context.Background(), ep, g, 0, 16<<20, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			ladder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ladder()
			}
		})
	}
}

// BenchmarkSegmentedExecution measures one message-level execution of a
// pipelined 88-machine broadcast (4 MB in 16 segments).
func BenchmarkSegmentedExecution(b *testing.B) {
	g := topology.Grid5000()
	ss := sched.ScheduleSegmented(sched.Mixed{}, sched.MustSegmentedProblem(g, 0, 4<<20, 256<<10, sched.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpi.ExecuteSegmentedSchedule(g, ss, mpi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePool measures a root-rotation workload at 128 clusters
// (the reuse case the pool's lookahead templates target) through
// Heuristic.Schedule, which checks a pool out of the package's sync.Pool
// per schedule ("fresh"), against one pool held across all roots
// ("pooled").
func BenchmarkEnginePool(b *testing.B) {
	g := topology.RandomGrid(stats.NewRand(1), 128)
	probs := make([]*sched.Problem, 8)
	for root := range probs {
		probs[root] = sched.MustProblem(g, root, 1<<20, sched.Options{Overlap: true})
	}
	h := sched.ECEFLAT()
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range probs {
				h.Schedule(p)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		ep := sched.NewEnginePool()
		for i := 0; i < b.N; i++ {
			for _, p := range probs {
				ep.Schedule(h, p)
			}
		}
	})
}

// BenchmarkBestOfColdSizes measures the daemon's cold-request shape: a
// best-of over the paper's heuristics (sched.Paper) at 16 message sizes the
// pool has not seen, through one EnginePool held across ops as a Session
// holds its pools. Every size brings its own W, so each op costs 16 sizes'
// matrices and builds 48 lookahead templates, each read by one schedule.
// n=128 is the daemon's random:7:128 platform; at n=512 a template is
// 4 MB, so the pool's byte budget evicts as the stream goes on.
func BenchmarkBestOfColdSizes(b *testing.B) {
	for _, n := range []int{128, 512} {
		g := topology.RandomGrid(stats.NewRand(7), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ep := sched.NewEnginePool()
			m := int64(1 << 20)
			for i := 0; i < b.N; i++ {
				for k := 0; k < 16; k++ {
					m += 4099
					p := sched.MustProblem(g, k, m, sched.Options{})
					for _, h := range sched.Paper() {
						ep.Schedule(h, p)
					}
				}
			}
		})
	}
}

// BenchmarkTracedBuild measures a traced ECEF-LAT build — the schedule plus
// the replay log a cached single-heuristic plan keeps for Session.Replan —
// on a pool whose template is warm.
func BenchmarkTracedBuild(b *testing.B) {
	for _, n := range []int{128, 512} {
		p := sched.MustProblem(topology.RandomGrid(stats.NewRand(7), n), 0, 1<<20, sched.Options{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ep := sched.NewEnginePool()
			for i := 0; i < b.N; i++ {
				sched.ScheduleTraced(ep, sched.ECEFLAT(), p)
			}
		})
	}
}

// BenchmarkSegmentedEngine compares the incremental segmented engine
// against the naive quadratic-scan segmented pickers on large random
// platforms (16 MB in 128 KB segments, Mixed) — the before/after pair of
// the segmented-engine port, mirroring BenchmarkEngineVsReference.
func BenchmarkSegmentedEngine(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		g := topology.RandomGrid(stats.NewRand(1), n)
		sp := sched.MustSegmentedProblem(g, 0, 16<<20, 128<<10, sched.Options{Overlap: true})
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.ScheduleSegmented(sched.Mixed{}, sp)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.ScheduleSegmentedReference(sched.Mixed{}, sp)
			}
		})
	}
}

// BenchmarkLocalSegmentedTree measures the per-segment intra-cluster timing
// model T_i(s, K) (intracluster.SegmentedCompletion) on a 64-node streamed
// chain at 16 MB / 128 segments — the per-cluster evaluation the end-to-end
// pipeline adds to every segmented schedule construction.
func BenchmarkLocalSegmentedTree(b *testing.B) {
	params := plogp.FromBandwidth(5e-5, 5e-5, 100e6)
	tree := intracluster.New(intracluster.Chain, 64)
	sizes := intracluster.SegmentSizes(128<<10, 128<<10, 128)
	var t float64
	for i := 0; i < b.N; i++ {
		t = tree.SegmentedCompletion(params, sizes, nil)
	}
	b.ReportMetric(t, "T-s-K-s")
}

// BenchmarkLocalSegmentedSchedule measures end-to-end pipelined schedule
// construction (SegmentedLocal: per-segment local trees, TL estimates, the
// per-cluster min completion) on the 88-machine grid at 16 MB / 128 KB
// segments, plus the quality it buys over the coordinator-only pipeline.
func BenchmarkLocalSegmentedSchedule(b *testing.B) {
	g := topology.Grid5000()
	const m = 16 << 20
	sp := sched.MustSegmentedProblem(g, 0, m, 128<<10, sched.Options{SegmentedLocal: true})
	b.ResetTimer()
	var ss *sched.SegmentedSchedule
	for i := 0; i < b.N; i++ {
		ss = sched.ScheduleSegmented(sched.Mixed{}, sp)
	}
	b.StopTimer()
	coord := sched.ScheduleSegmented(sched.Mixed{}, sched.MustSegmentedProblem(g, 0, m, 128<<10, sched.Options{}))
	b.ReportMetric(ss.Makespan/coord.Makespan, "vs-coord-only")
}

// BenchmarkPoolSegmentedReuse measures repeated pooled segmented schedule
// construction on one platform (16 MB in 128 KB segments, Mixed) — the
// setup path the EnginePool's per-matrix-identity Gs/Wl transpose cache
// targets; see EXPERIMENTS.md for the before/after numbers.
func BenchmarkPoolSegmentedReuse(b *testing.B) {
	for _, n := range []int{64, 256} {
		g := topology.RandomSizedGrid(stats.NewRand(1), n)
		sp := sched.MustSegmentedProblem(g, 0, 16<<20, 128<<10, sched.Options{Overlap: true})
		ep := sched.NewEnginePool()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ep.ScheduleSegmented(sched.Mixed{}, sp)
			}
		})
	}
}

// BenchmarkSessionPlan measures the Session serving path: repeated plans on
// one warmed platform, the many-roots/many-sizes scenario the unified API
// exists for. The pipelined variant runs the whole segment-size ladder
// through the pooled engines per op.
func BenchmarkSessionPlan(b *testing.B) {
	g := topology.RandomSizedGrid(stats.NewRand(1), 64)
	sess, err := gridbcast.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Plan(gridbcast.NewRequest(
				gridbcast.WithHeuristic(gridbcast.ECEFLAT),
				gridbcast.WithRoot(i%g.N()), gridbcast.WithSize(1<<20))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("best-of", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Plan(gridbcast.NewRequest(
				gridbcast.WithRoot(i%g.N()), gridbcast.WithSize(1<<20))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Plan(gridbcast.NewRequest(
				gridbcast.WithHeuristic(gridbcast.Mixed),
				gridbcast.WithRoot(i%g.N()), gridbcast.WithSize(16<<20),
				gridbcast.WithPipelined())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-16roots", func(b *testing.B) {
		reqs := make([]gridbcast.Request, 16)
		for r := range reqs {
			reqs[r] = gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT),
				gridbcast.WithRoot(r%g.N()), gridbcast.WithSize(1<<20))
		}
		for i := 0; i < b.N; i++ {
			if _, err := sess.PlanBatch(reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimKernel measures raw event throughput of the discrete-event
// kernel (ping-pong between two processes).
func BenchmarkSimKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.New()
		a2b, b2a := sim.NewChan[int](env), sim.NewChan[int](env)
		env.Process("a", func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				a2b.SendAfter(0.001, k)
				b2a.Recv(p)
			}
		})
		env.Process("b", func(p *sim.Proc) {
			for k := 0; k < 1000; k++ {
				a2b.Recv(p)
				b2a.SendAfter(0.001, k)
			}
		})
		env.Run()
	}
	b.ReportMetric(float64(b.N*2000), "events")
}

func reportSeries(b *testing.B, fig *experiment.Figure, names ...string) {
	b.Helper()
	for _, name := range names {
		reportLastPoint(b, fig, name, name+"-s")
	}
}

func reportLastPoint(b *testing.B, fig *experiment.Figure, series, metric string) {
	b.Helper()
	s := fig.SeriesByName(series)
	if s == nil || len(s.Points) == 0 {
		b.Fatalf("missing series %s", series)
	}
	b.ReportMetric(s.Points[len(s.Points)-1].Y, metric)
}

// BenchmarkReplan measures absorbing a single-cluster drift through the
// facade: Session.Replan's patch+replay fast path against the full
// NewSession+Plan rebuild a caller without the trace must perform (N=512,
// ECEF-LAT, drift on a late-scheduled cluster). Both sides pay the same
// platform clone + problem construction, so the end-to-end gap (~2x) is
// far narrower than the scheduling step it protects (~50x, isolated by
// internal/sched's BenchmarkReplan/*Schedule pair — where the >= 5x
// acceptance bar lives).
func BenchmarkReplan(b *testing.B) {
	g := topology.RandomGrid(stats.NewRand(1), 512)
	sess, err := gridbcast.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT),
		gridbcast.WithSize(1<<20), gridbcast.WithReplan())
	plan, err := sess.Plan(req)
	if err != nil {
		b.Fatal(err)
	}
	d := gridbcast.PlatformDelta{
		Cluster:     plan.Schedule.Events[len(plan.Schedule.Events)-1].To,
		OutGapScale: 1.5, InGapScale: 1.5,
	}
	b.Run("replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.Replan(plan, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ng, err := g.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			ns, err := gridbcast.NewSession(ng)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ns.Plan(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// cacheBenchMix is the repeat-heavy request stream of BenchmarkPlanCache: a
// Zipf-like mix over 16 distinct requests (rank r appears ∝ 1/r, so a few
// requests dominate — the serving pattern a plan cache exists for),
// deterministically shuffled.
func cacheBenchMix() []gridbcast.Request {
	var mix []gridbcast.Request
	for rank := 1; rank <= 16; rank++ {
		req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT),
			gridbcast.WithSize(1<<20), gridbcast.WithRoot(rank-1))
		for c := 0; c < 64/rank; c++ {
			mix = append(mix, req)
		}
	}
	r := stats.NewRand(7)
	r.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// reportLatencyPercentiles attaches p50/p99 per-request latency to the
// benchmark output.
func reportLatencyPercentiles(b *testing.B, lat []time.Duration) {
	b.Helper()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*50/100]), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
}

// BenchmarkPlanCache drives the Zipf repeat-heavy mix through Session.Plan
// at N=512 (ECEF-LAT), cached against uncached. The cached side plans the
// mix's 16 distinct keys before the timer starts, so its row times the
// steady state — every request a hit served in microseconds against the
// ~10ms build, the >= 50x cache-hit acceptance bar of DESIGN.md §12 with
// orders of magnitude to spare — and reports the timed requests' hit rate
// (1 by construction) and p50/p99 per-request latency. The miss cost is
// the uncached row's.
func BenchmarkPlanCache(b *testing.B) {
	g := topology.RandomGrid(stats.NewRand(1), 512)
	mix := cacheBenchMix()
	b.Run("cached", func(b *testing.B) {
		sess, err := gridbcast.NewSession(g, gridbcast.WithPlanCache(64))
		if err != nil {
			b.Fatal(err)
		}
		for _, req := range mix {
			if _, err := sess.Plan(req); err != nil {
				b.Fatal(err)
			}
		}
		warm := sess.CacheStats()
		lat := make([]time.Duration, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := sess.Plan(mix[i%len(mix)]); err != nil {
				b.Fatal(err)
			}
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		st := sess.CacheStats()
		hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
		reportLatencyPercentiles(b, lat)
	})
	b.Run("uncached", func(b *testing.B) {
		sess, err := gridbcast.NewSession(g)
		if err != nil {
			b.Fatal(err)
		}
		lat := make([]time.Duration, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := sess.Plan(mix[i%len(mix)]); err != nil {
				b.Fatal(err)
			}
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		reportLatencyPercentiles(b, lat)
	})
}

// BenchmarkCacheMigration compares absorbing a drift on a warmed caching
// session (N=512, 16 resident plans): Session.Replan migrates every entry
// — one platform clone + cost patch amortized across the set — against
// flushing and rebuilding each plan from scratch on the drifted platform.
// The migrate row's 16 plans were planned WithReplan, so they are traced
// and replayed through one shared replayer; the migrate-untraced row's
// were planned without it, so they carry no trace and migrate by rebuild.
// Every migrated plan is byte-identical to its rebuilt counterpart
// (TestReplanMigratesCache); only the cost differs.
func BenchmarkCacheMigration(b *testing.B) {
	const warm = 16
	g := topology.RandomGrid(stats.NewRand(1), 512)
	request := func(root int, traced bool) gridbcast.Request {
		opts := []gridbcast.Option{gridbcast.WithHeuristic(gridbcast.ECEFLAT),
			gridbcast.WithSize(1 << 20), gridbcast.WithRoot(root)}
		if traced {
			opts = append(opts, gridbcast.WithReplan())
		}
		return gridbcast.NewRequest(opts...)
	}
	// warmSession plans the 16 requests on a new caching session, sets d
	// to a drift of the first plan's last receiver, checks that the drift
	// migrates all 16, and returns the session with the first plan.
	var d gridbcast.PlatformDelta
	warmSession := func(traced bool) (*gridbcast.Session, *gridbcast.Plan) {
		sess, err := gridbcast.NewSession(g, gridbcast.WithPlanCache(warm*2))
		if err != nil {
			b.Fatal(err)
		}
		var anchor *gridbcast.Plan
		for root := 0; root < warm; root++ {
			pl, err := sess.Plan(request(root, traced))
			if err != nil {
				b.Fatal(err)
			}
			if anchor == nil {
				anchor = pl
			}
		}
		d = gridbcast.PlatformDelta{
			Cluster:     anchor.Schedule.Events[len(anchor.Schedule.Events)-1].To,
			OutGapScale: 1.5, InGapScale: 1.5,
		}
		if ns, _, err := sess.Replan(anchor, d); err != nil {
			b.Fatal(err)
		} else if got := ns.CacheStats().Migrated; got != warm {
			b.Fatalf("migrated %d entries, want %d", got, warm)
		}
		return sess, anchor
	}

	for _, row := range []struct {
		name   string
		traced bool
	}{{"migrate", true}, {"migrate-untraced", false}} {
		sess, anchor := warmSession(row.traced)
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sess.Replan(anchor, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("flush-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ng, err := g.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			ns, err := gridbcast.NewSession(ng, gridbcast.WithPlanCache(warm*2))
			if err != nil {
				b.Fatal(err)
			}
			for root := 0; root < warm; root++ {
				if _, err := ns.Plan(request(root, false)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
