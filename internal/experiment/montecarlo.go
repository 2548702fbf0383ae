package experiment

import (
	"fmt"
	"runtime"
	"sync"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// MonteCarlo configures the §6 simulation study: random platforms drawn
// from Table 2, many iterations, averaged completion times.
type MonteCarlo struct {
	// Iterations per cluster count; the paper uses 10000. Default 10000.
	Iterations int
	// Seed makes the whole study reproducible. Iteration k always uses
	// the stream stats.SplitSeed(Seed, k) regardless of worker count.
	Seed int64
	// Workers bounds parallelism (default GOMAXPROCS). Results are
	// deterministic for any worker count.
	Workers int
	// MsgSize is the broadcast payload; the paper simulates 1 MB, and
	// Table 2's gap range is calibrated for that size. Default 1 MB.
	MsgSize int64
	// Symmetric draws symmetric link matrices instead of independent
	// directions (ablation; the paper does not specify). Default false.
	Symmetric bool
	// Root, when >= 0, fixes the root cluster; -1 draws it uniformly.
	// Default 0 (the paper broadcasts from a fixed root).
	Root int
}

// planOptions assembles the request options shared by every sweep plan:
// the §6 Monte-Carlo setting (overlap completion model).
func (mc MonteCarlo) planOptions(h sched.Heuristic, root int) []gridbcast.Option {
	return []gridbcast.Option{
		gridbcast.WithHeuristic(h),
		gridbcast.WithRoot(root),
		gridbcast.WithSize(mc.msgSize()),
		gridbcast.WithOverlap(true),
	}
}

func (mc MonteCarlo) iterations() int {
	if mc.Iterations <= 0 {
		return 10000
	}
	return mc.Iterations
}

func (mc MonteCarlo) workers() int {
	if mc.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return mc.Workers
}

func (mc MonteCarlo) msgSize() int64 {
	if mc.MsgSize <= 0 {
		return 1 << 20
	}
	return mc.MsgSize
}

// meanCompletion runs the Monte-Carlo study for one cluster count and
// returns one accumulator per heuristic.
//
// Workers fill disjoint iterations of a shared per-iteration result table
// and the accumulators are folded in iteration order afterwards (the
// FigSegmentsRandom ordered-fold pattern), so every statistic — not just
// its limit — is bitwise identical for any worker count.
func (mc MonteCarlo) meanCompletion(hs []sched.Heuristic, n int) []stats.Accumulator {
	spans := mc.sweepSpans(hs, n)
	out := make([]stats.Accumulator, len(hs))
	for _, row := range spans {
		for hi := range hs {
			out[hi].Add(row[hi])
		}
	}
	return out
}

// sweepSpans computes the per-iteration makespans of every heuristic:
// spans[it][hi] is iteration it scheduled with hs[hi]. Iterations are
// sharded across the worker pool; each slot is written by exactly one
// worker, so the table's content is independent of the worker count.
func (mc MonteCarlo) sweepSpans(hs []sched.Heuristic, n int) [][]float64 {
	iters := mc.iterations()
	nw := mc.workers()
	spans := make([][]float64, iters)

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One Session per drawn platform: planning runs through the
			// facade's shared engine-pool cache, which hands each worker
			// goroutine recycled engines in steady state — the per-worker
			// reuse this loop used to wire by hand.
			for it := w; it < iters; it += nw {
				g, root := mc.instanceGrid(n, it)
				sess, err := gridbcast.NewSession(g)
				if err != nil {
					panic(err) // drawn platforms are valid by construction
				}
				row := make([]float64, len(hs))
				for hi, h := range hs {
					plan, err := sess.Plan(gridbcast.NewRequest(mc.planOptions(h, root)...))
					if err != nil {
						panic(err)
					}
					row[hi] = plan.Makespan
				}
				spans[it] = row
			}
		}(w)
	}
	wg.Wait()
	return spans
}

// instanceGrid draws the it-th random platform (and root) for n clusters.
func (mc MonteCarlo) instanceGrid(n, it int) (*topology.Grid, int) {
	r := stats.NewRand(stats.SplitSeed(mc.Seed, int64(it)*1000003+int64(n)))
	var g *topology.Grid
	if mc.Symmetric {
		g = topology.RandomSymmetricGrid(r, n)
	} else {
		g = topology.RandomGrid(r, n)
	}
	root := mc.Root
	if root < 0 {
		root = r.Intn(n)
	}
	return g, root
}

// instance draws the it-th random problem for n clusters (the costed form
// used by the Optimal-gap ablation, which schedules below the facade).
func (mc MonteCarlo) instance(n, it int) *sched.Problem {
	g, root := mc.instanceGrid(n, it)
	return sched.MustProblem(g, root, mc.msgSize(), sched.Options{Overlap: true})
}

// sweep runs meanCompletion over a list of cluster counts and assembles a
// Figure with one series per heuristic.
func (mc MonteCarlo) sweep(id, title string, hs []sched.Heuristic, counts []int) *Figure {
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "clusters",
		YLabel: "completion time (s)",
		Series: make([]Series, len(hs)),
	}
	for hi, h := range hs {
		fig.Series[hi].Name = h.Name()
	}
	for _, n := range counts {
		accs := mc.meanCompletion(hs, n)
		for hi := range hs {
			fig.Series[hi].Points = append(fig.Series[hi].Points, Point{
				X:  float64(n),
				Y:  accs[hi].Mean(),
				CI: accs[hi].CI95(),
			})
		}
	}
	return fig
}

// Fig1 reproduces Figure 1: average completion time of a 1 MB broadcast for
// 2–10 clusters, all seven heuristics, 10000 iterations per point.
func (mc MonteCarlo) Fig1() *Figure {
	return mc.sweep("fig1", "1 MB broadcast, reduced number of clusters (Figure 1)",
		sched.Paper(), seq(2, 10, 1))
}

// Fig2 reproduces Figure 2: the same study stretched to 5–50 clusters.
func (mc MonteCarlo) Fig2() *Figure {
	return mc.sweep("fig2", "1 MB broadcast, up to 50 clusters (Figure 2)",
		sched.Paper(), seq(5, 50, 5))
}

// Fig3 reproduces Figure 3: close-up on the four ECEF-like heuristics.
func (mc MonteCarlo) Fig3() *Figure {
	return mc.sweep("fig3", "ECEF-like heuristics close-up (Figure 3)",
		sched.ECEFFamily(), seq(5, 50, 5))
}

// Fig4 reproduces Figure 4: for each cluster count, how many of the
// Iterations runs each ECEF-like heuristic matches the global minimum —
// the best makespan any of the compared heuristics achieves on that
// instance (ties count for every heuristic achieving the minimum, which is
// why the series can sum to more than Iterations).
func (mc MonteCarlo) Fig4() *Figure {
	hs := sched.ECEFFamily()
	fig := &Figure{
		ID:     "fig4",
		Title:  fmt.Sprintf("hit rate on %d iterations (Figure 4)", mc.iterations()),
		XLabel: "clusters",
		YLabel: "number of hits",
		Series: make([]Series, len(hs)),
	}
	for hi, h := range hs {
		fig.Series[hi].Name = h.Name()
	}
	for _, n := range seq(5, 50, 5) {
		hits := mc.hitCounts(hs, n)
		for hi := range hs {
			fig.Series[hi].Points = append(fig.Series[hi].Points, Point{
				X: float64(n),
				Y: float64(hits[hi]),
			})
		}
	}
	return fig
}

// hitCounts counts, per heuristic, how often it attains the global minimum.
// Like meanCompletion it folds the shared per-iteration table in iteration
// order, so the counts are worker-count-exact by construction (integer
// sums are order-independent, but the shared pattern keeps every figure on
// one determinism argument).
func (mc MonteCarlo) hitCounts(hs []sched.Heuristic, n int) []int64 {
	const tol = 1e-9
	spans := mc.sweepSpans(hs, n)
	out := make([]int64, len(hs))
	for _, row := range spans {
		best := row[0]
		for _, s := range row[1:] {
			if s < best {
				best = s
			}
		}
		for hi := range hs {
			if row[hi] <= best+tol {
				out[hi]++
			}
		}
	}
	return out
}

// OptimalGap measures, over the Monte-Carlo distribution at n clusters
// (n <= sched.MaxOptimalClusters), the mean ratio heuristic/optimal
// makespan per heuristic — an ablation the paper sidesteps by using the
// global minimum.
func (mc MonteCarlo) OptimalGap(n int) ([]string, []stats.Accumulator) {
	if n > sched.MaxOptimalClusters {
		panic(fmt.Sprintf("experiment: OptimalGap limited to %d clusters", sched.MaxOptimalClusters))
	}
	hs := sched.Paper()
	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = h.Name()
	}
	accs := make([]stats.Accumulator, len(hs))
	for it := 0; it < mc.iterations(); it++ {
		p := mc.instance(n, it)
		opt := (sched.Optimal{}).Schedule(p).Makespan
		for hi, h := range hs {
			accs[hi].Add(h.Schedule(p).Makespan / opt)
		}
	}
	return names, accs
}

// seq returns lo, lo+step, ..., hi.
func seq(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}
