package experiment

import (
	"fmt"
	"sync"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// SegmentSweep configures the segment-size sweep (DESIGN.md §7): for each
// message size, the makespan of the pipelined broadcast as a function of the
// segment count, normalised to the unsegmented makespan of the same
// heuristic. Ratios below 1 mean segmentation wins.
type SegmentSweep struct {
	// Grid defaults to topology.Grid5000(); Root to cluster 0.
	Grid *topology.Grid
	Root int
	// Base is the heuristic whose segment-aware variant is swept; nil
	// means Mixed, the paper's recommendation.
	Base sched.Heuristic
	// Sizes are the broadcast payloads; the default spans 1 KB to 16 MB.
	Sizes []int64
	// Counts are the segment counts tried per payload (1 = unsegmented).
	Counts []int
}

// DefaultSegmentSizes spans the regimes where segmentation loses (tiny
// messages pay the per-segment gap), breaks even, and wins (multi-hop
// wide-area pipelining).
var DefaultSegmentSizes = []int64{1 << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20}

// DefaultSegmentCounts is the swept segment-count ladder.
var DefaultSegmentCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

func (c SegmentSweep) grid() *topology.Grid {
	if c.Grid != nil {
		return c.Grid
	}
	return topology.Grid5000()
}

func (c SegmentSweep) base() sched.Heuristic {
	if c.Base != nil {
		return c.Base
	}
	return sched.Mixed{}
}

func (c SegmentSweep) sizes() []int64 {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	return DefaultSegmentSizes
}

func (c SegmentSweep) counts() []int {
	if len(c.Counts) > 0 {
		return c.Counts
	}
	return DefaultSegmentCounts
}

// segSizeFor splits m bytes into (about) count segments.
func segSizeFor(m int64, count int) int64 {
	s := (m + int64(count) - 1) / int64(count)
	if s < 1 {
		s = 1
	}
	return s
}

// FigSegments sweeps segment counts on a fixed platform: one series per
// message size, x = segment count, y = makespan relative to unsegmented.
// This is the figure behind the large-message claim: on GRID5000, pipelined
// trees overlap the two wide-area hops the unsegmented model must serialise,
// so ratios drop well below 1 for multi-megabyte payloads.
func FigSegments(cfg SegmentSweep) (*Figure, error) {
	g := cfg.grid()
	base := cfg.base()
	fig := &Figure{
		ID:     "fig7",
		Title:  fmt.Sprintf("segmented broadcast on %d clusters, %s (relative to unsegmented)", g.N(), base.Name()),
		XLabel: "segments",
		YLabel: "relative completion time",
	}
	for _, m := range cfg.sizes() {
		s := Series{Name: sizeLabel(m)}
		// The unsegmented baseline is computed explicitly so custom Counts
		// need not include (or start with) 1; the count-1 sweep entry
		// reproduces it bit for bit and plots exactly 1.
		sp1, err := sched.NewSegmentedProblem(g, cfg.Root, m, segSizeFor(m, 1), sched.Options{})
		if err != nil {
			return nil, err
		}
		unseg := sched.ScheduleSegmented(base, sp1).Makespan
		for _, count := range cfg.counts() {
			sp, err := sched.NewSegmentedProblem(g, cfg.Root, m, segSizeFor(m, count), sched.Options{})
			if err != nil {
				return nil, err
			}
			span := sched.ScheduleSegmented(base, sp).Makespan
			s.Points = append(s.Points, Point{X: float64(count), Y: span / unseg})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// FigSegmentsRandom repeats the sweep on random platforms with
// size-dependent gaps (topology.RandomSizedGrid — Table 2 magnitudes with a
// drawn fixed/linear gap split), averaging the makespan ratio over the
// Monte-Carlo distribution at n clusters. Sizes and counts default as in
// SegmentSweep.
func (mc MonteCarlo) FigSegmentsRandom(n int, sizes []int64, counts []int) *Figure {
	if len(sizes) == 0 {
		sizes = DefaultSegmentSizes
	}
	if len(counts) == 0 {
		counts = DefaultSegmentCounts
	}
	iters := mc.iterations()
	nw := mc.workers()
	// ratios[it] holds iteration it's ratio per (size, count); workers fill
	// disjoint iterations and the fold below runs in iteration order, so the
	// figure is bitwise identical for any worker count.
	ratios := make([][]float64, iters)

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One Session per drawn platform: the facade's pooled segmented
			// engine produces identical schedules and recycles the candidate
			// caches (and Gs transposes) across the (size, count) grid.
			segPlan := func(sess *gridbcast.Session, root int, m, segSize int64) float64 {
				plan, err := sess.Plan(gridbcast.NewRequest(
					gridbcast.WithHeuristic(gridbcast.Mixed),
					gridbcast.WithRoot(root), gridbcast.WithSize(m),
					gridbcast.WithSegments(segSize), gridbcast.WithOverlap(true)))
				if err != nil {
					panic(err)
				}
				return plan.Makespan
			}
			for it := w; it < iters; it += nw {
				r := stats.NewRand(stats.SplitSeed(mc.Seed, int64(it)*2000003+int64(n)))
				g := topology.RandomSizedGrid(r, n)
				root := mc.Root
				if root < 0 {
					root = r.Intn(n)
				}
				sess, err := gridbcast.NewSession(g)
				if err != nil {
					panic(err)
				}
				row := make([]float64, len(sizes)*len(counts))
				for si, m := range sizes {
					unseg := segPlan(sess, root, m, segSizeFor(m, 1))
					for ci, count := range counts {
						row[si*len(counts)+ci] = segPlan(sess, root, m, segSizeFor(m, count)) / unseg
					}
				}
				ratios[it] = row
			}
		}(w)
	}
	wg.Wait()
	accs := make([][]stats.Accumulator, len(sizes))
	for si := range sizes {
		accs[si] = make([]stats.Accumulator, len(counts))
	}
	for _, row := range ratios {
		for si := range sizes {
			for ci := range counts {
				accs[si][ci].Add(row[si*len(counts)+ci])
			}
		}
	}

	fig := &Figure{
		ID:     "fig8",
		Title:  fmt.Sprintf("segmented broadcast, %d random clusters, %d iterations (relative to unsegmented)", n, iters),
		XLabel: "segments",
		YLabel: "relative completion time",
	}
	for si, m := range sizes {
		s := Series{Name: sizeLabel(m)}
		for ci, count := range counts {
			s.Points = append(s.Points, Point{X: float64(count), Y: accs[si][ci].Mean(), CI: accs[si][ci].CI95()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// sizeLabel renders a byte count compactly ("64 KB", "16 MB").
func sizeLabel(m int64) string {
	switch {
	case m >= 1<<20 && m%(1<<20) == 0:
		return fmt.Sprintf("%d MB", m>>20)
	case m >= 1<<10 && m%(1<<10) == 0:
		return fmt.Sprintf("%d KB", m>>10)
	}
	return fmt.Sprintf("%d B", m)
}
