package sched

import (
	"context"
	"math"
	"reflect"
	"testing"

	"fmt"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/plogp"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// localOpts is the end-to-end pipeline option set used throughout.
var localOpts = Options{SegmentedLocal: true}

// TestSegmentedLocalOneSegmentByteIdentical pins the K = 1 acceptance
// contract: with a single segment, SegmentedLocal schedules are byte-for-
// byte identical to the coordinator-only path (DeepEqual, every field
// including the LocalSeg markers), for every heuristic and both completion
// models.
func TestSegmentedLocalOneSegmentByteIdentical(t *testing.T) {
	g := topology.Grid5000()
	m := int64(1 << 20)
	for _, overlap := range []bool{false, true} {
		plain := MustSegmentedProblem(g, 0, m, m, Options{Overlap: overlap})
		local := MustSegmentedProblem(g, 0, m, m, Options{Overlap: overlap, SegmentedLocal: true})
		if local.LocalSeg {
			t.Fatal("one-segment problem must stay in coordinator-only mode")
		}
		for _, h := range append(Paper(), Mixed{}) {
			a := ScheduleSegmented(h, plain)
			b := ScheduleSegmented(h, local)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s overlap=%v: K=1 SegmentedLocal schedule diverges", h.Name(), overlap)
			}
		}
	}
}

// TestSegmentedLocalModelledClustersInert: platforms whose clusters all
// carry an explicit BcastTime (the §6 Monte-Carlo setting) have no tree to
// segment, so SegmentedLocal must be byte-identical there too — at any K.
func TestSegmentedLocalModelledClustersInert(t *testing.T) {
	g := topology.RandomSizedGrid(stats.NewRand(5), 9)
	m := int64(4 << 20)
	plain := MustSegmentedProblem(g, 2, m, 256<<10, Options{})
	local := MustSegmentedProblem(g, 2, m, 256<<10, localOpts)
	if local.LocalSeg {
		t.Fatal("modelled-cluster platform must stay in coordinator-only mode")
	}
	for _, h := range Paper() {
		if !reflect.DeepEqual(ScheduleSegmented(h, plain), ScheduleSegmented(h, local)) {
			t.Fatalf("%s: SegmentedLocal diverges on a treeless platform", h.Name())
		}
	}
}

// TestSegmentedLocalNeverWorsePerTree re-times the SAME pair sequence with
// and without the segmented local phase: per-cluster completions (and the
// makespan) must never grow — the min-model guarantee behind the
// "never worse than the coordinator-only pipeline" acceptance bound.
func TestSegmentedLocalNeverWorsePerTree(t *testing.T) {
	g := topology.Grid5000()
	for _, overlap := range []bool{false, true} {
		for _, m := range []int64{1 << 20, 4 << 20, 16 << 20} {
			for _, segSize := range []int64{m, 1 << 20, 256 << 10, 64 << 10} {
				plain := MustSegmentedProblem(g, 0, m, segSize, Options{Overlap: overlap})
				local := MustSegmentedProblem(g, 0, m, segSize, Options{Overlap: overlap, SegmentedLocal: true})
				for _, h := range []Heuristic{Mixed{}, ECEFLAT(), FlatTree{}} {
					base := ScheduleSegmented(h, plain)
					re := EvaluateSegmented(local, base.Pairs())
					for i := 0; i < plain.N; i++ {
						if re.Completion[i] > base.Completion[i]+1e-12 {
							t.Errorf("%s overlap=%v m=%d seg=%d cluster %d: local segmentation worsened completion (%g > %g)",
								h.Name(), overlap, m, segSize, i, re.Completion[i], base.Completion[i])
						}
					}
					if re.Makespan > base.Makespan+1e-12 {
						t.Errorf("%s overlap=%v m=%d seg=%d: makespan worsened (%g > %g)",
							h.Name(), overlap, m, segSize, re.Makespan, base.Makespan)
					}
				}
			}
		}
	}
}

// TestPipelinedSegmentedLocalNeverWorseGrid5000 is the acceptance bound on
// the full ladder search: with segmentation on, Pipelined+SegmentedLocal is
// never worse than the coordinator-only Pipelined on GRID5000 at >= 4 MB
// (any root, strict and overlap models).
func TestPipelinedSegmentedLocalNeverWorseGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, overlap := range []bool{false, true} {
		for _, m := range []int64{4 << 20, 16 << 20} {
			for root := 0; root < g.N(); root++ {
				base, err := (Pipelined{}).BestContext(context.Background(), NewEnginePool(), g, root, m, Options{Overlap: overlap})
				if err != nil {
					t.Fatal(err)
				}
				local, err := (Pipelined{}).BestContext(context.Background(), NewEnginePool(), g, root, m, Options{Overlap: overlap, SegmentedLocal: true})
				if err != nil {
					t.Fatal(err)
				}
				if local.Makespan > base.Makespan+1e-12 {
					t.Errorf("root %d m=%d overlap=%v: Pipelined+SegmentedLocal %g worse than coordinator-only %g",
						root, m, overlap, local.Makespan, base.Makespan)
				}
			}
		}
	}
}

// TestSegmentedLocalNeverWorseRandom pins the STRUCTURAL never-worse bound
// (coordGuard): on random multi-node platforms — where the TL-steered
// greedy is free to pick a different wide-area tree — every segmented-local
// schedule is still never worse than the same heuristic's coordinator-only
// schedule at the same segmentation, through the naive, engine and pooled
// paths alike.
func TestSegmentedLocalNeverWorseRandom(t *testing.T) {
	ep := NewEnginePool()
	for trial := 0; trial < 12; trial++ {
		r := stats.NewRand(stats.SplitSeed(77, int64(trial)))
		n := 3 + r.Intn(20)
		g := topology.RandomClusteredGrid(r, n)
		root := r.Intn(n)
		m := int64(8 << 20)
		segSize := int64(1 << (15 + trial%5))
		plain := MustSegmentedProblem(g, root, m, segSize, Options{Overlap: trial%2 == 0})
		local := MustSegmentedProblem(g, root, m, segSize, Options{Overlap: trial%2 == 0, SegmentedLocal: true})
		for _, h := range append(Paper(), Mixed{}) {
			base := ScheduleSegmented(h, plain)
			for path, ss := range map[string]*SegmentedSchedule{
				"engine": ScheduleSegmented(h, local),
				"naive":  ScheduleSegmentedReference(h, local),
				"pooled": ep.ScheduleSegmented(h, local),
			} {
				if ss.Makespan > base.Makespan+1e-12 {
					t.Errorf("trial %d %s (%s): segmented-local %g worse than coordinator-only %g",
						trial, h.Name(), path, ss.Makespan, base.Makespan)
				}
			}
		}
	}
}

// TestSegmentedLocalGainsOnGrid5000 pins that the tentpole actually buys
// something: on the paper's platform at large sizes, at least one cluster
// adopts the streamed local phase and the makespan strictly improves over
// the coordinator-only pipeline at the same segmentation.
func TestSegmentedLocalGainsOnGrid5000(t *testing.T) {
	g := topology.Grid5000()
	m := int64(16 << 20)
	segSize := int64(256 << 10)
	plain := MustSegmentedProblem(g, 0, m, segSize, Options{})
	local := MustSegmentedProblem(g, 0, m, segSize, localOpts)
	base := ScheduleSegmented(Mixed{}, plain)
	ss := ScheduleSegmented(Mixed{}, local)
	if !ss.LocalSeg {
		t.Fatal("end-to-end pipeline not active on Grid5000")
	}
	streamed := 0
	for _, on := range ss.LocalSegmented {
		if on {
			streamed++
		}
	}
	if streamed == 0 {
		t.Error("no cluster adopted the streamed local phase at 16 MB / 256 KB")
	}
	if ss.Makespan >= base.Makespan {
		t.Errorf("segmented local phase did not improve the makespan (%g vs %g)", ss.Makespan, base.Makespan)
	}
}

// TestSegmentedLocalEngineMatchesReference pins the incremental segmented
// engine (and the pooled variant) against the naive pickers under the
// end-to-end pipeline's TL-based costs, on a platform large enough to clear
// the engine gate (Grid5000 clusters replicated past segEngineMinN).
func TestSegmentedLocalEngineMatchesReference(t *testing.T) {
	g := bigTreeGrid(24)
	ep := NewEnginePool()
	for _, segSize := range []int64{16 << 20, 512 << 10, 64 << 10} {
		sp := MustSegmentedProblem(g, 1, 16<<20, segSize, localOpts)
		if sp.N < segEngineMinN {
			t.Fatalf("test platform too small to exercise the engine (N=%d)", sp.N)
		}
		for _, h := range append(Paper(), Mixed{}) {
			ref := ScheduleSegmentedReference(h, sp)
			if got := ScheduleSegmented(h, sp); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s seg=%d: segmented engine diverges from reference under SegmentedLocal", h.Name(), segSize)
			}
			if got := ep.ScheduleSegmented(h, sp); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s seg=%d: pooled segmented engine diverges from reference under SegmentedLocal", h.Name(), segSize)
			}
		}
	}
}

// TestSegmentedLocalValidateRoundTrip checks Validate accepts engine-built
// end-to-end schedules and rejects tampered local-segmentation state.
func TestSegmentedLocalValidateRoundTrip(t *testing.T) {
	g := topology.Grid5000()
	sp := MustSegmentedProblem(g, 0, 16<<20, 256<<10, localOpts)
	ss := ScheduleSegmented(Mixed{}, sp)
	if err := ss.Validate(sp); err != nil {
		t.Fatalf("valid end-to-end schedule rejected: %v", err)
	}
	mode := *ss
	mode.LocalSeg = false
	if err := mode.Validate(sp); err == nil {
		t.Error("mode-stripped schedule accepted")
	}
	flip := *ss
	flip.LocalSegmented = append([]bool(nil), ss.LocalSegmented...)
	flip.LocalSegmented[0] = !flip.LocalSegmented[0]
	if err := flip.Validate(sp); err == nil {
		t.Error("tampered per-cluster decision accepted")
	}
	short := *ss
	short.LocalSegmented = ss.LocalSegmented[:1]
	if err := short.Validate(sp); err == nil {
		t.Error("truncated decision vector accepted")
	}
}

// TestSegmentedLocalTLBounds sanity-checks the estimate vector: TL is
// min(T_i(s,K), T_i(m)), so it never exceeds T and matches the intracluster
// prediction for tree clusters.
func TestSegmentedLocalTLBounds(t *testing.T) {
	g := topology.Grid5000()
	sp := MustSegmentedProblem(g, 0, 16<<20, 256<<10, localOpts)
	if !sp.LocalSeg {
		t.Fatal("end-to-end pipeline not active")
	}
	for i, c := range g.Clusters {
		if sp.TL[i] > sp.T[i] {
			t.Errorf("cluster %d: TL %g exceeds T %g", i, sp.TL[i], sp.T[i])
		}
		if c.BcastTime > 0 || c.Nodes <= 1 {
			if sp.TL[i] != sp.T[i] {
				t.Errorf("cluster %d: treeless TL %g != T %g", i, sp.TL[i], sp.T[i])
			}
			continue
		}
		// The streamed local phase is the pipelined chain (see segmentLocal).
		tk := intracluster.PredictSegmented(intracluster.Chain, c.Nodes, c.Intra, sp.SegSize, sp.LastSize, sp.K)
		if want := math.Min(tk, sp.T[i]); sp.TL[i] != want {
			t.Errorf("cluster %d: TL %g, want min(%g, %g)", i, sp.TL[i], tk, sp.T[i])
		}
	}
}

// bigTreeGrid builds an n-cluster platform by tiling Grid5000's clusters
// and link parameters — large enough to clear the incremental segmented
// engine's gate, with real multi-node local trees to segment.
func bigTreeGrid(n int) *topology.Grid {
	base := topology.Grid5000()
	bn := base.N()
	g := &topology.Grid{
		Clusters: make([]topology.Cluster, n),
		Inter:    make([][]plogp.Params, n),
	}
	for i := 0; i < n; i++ {
		c := base.Clusters[i%bn]
		c.Name = fmt.Sprintf("%s-%d", c.Name, i)
		g.Clusters[i] = c
		g.Inter[i] = make([]plogp.Params, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			bi, bj := i%bn, j%bn
			if bi == bj {
				bj = (bj + 1) % bn
			}
			g.Inter[i][j] = base.Inter[bi][bj]
		}
	}
	return g
}
