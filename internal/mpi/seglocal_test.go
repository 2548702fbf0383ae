package mpi

import (
	"math"
	"testing"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/plogp"
	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// TestSegmentedLocalExecutionMatchesPredictionGrid5000 is the end-to-end
// pipeline's simulator contract (the tentpole acceptance bound): with the
// local trees streaming, the measured makespan and per-cluster completions
// reproduce the analytic per-segment model to ~1e-8 on the paper's
// platform, across heuristics and segment sizes.
func TestSegmentedLocalExecutionMatchesPredictionGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{4 << 20, 16 << 20} {
		for _, segSize := range []int64{1 << 20, 256 << 10, 64 << 10} {
			sp := sched.MustSegmentedProblem(g, 0, m, segSize, sched.Options{SegmentedLocal: true})
			for _, h := range []sched.Heuristic{sched.Mixed{}, sched.ECEFLAT(), sched.FlatTree{}} {
				ss := sched.ScheduleSegmented(h, sp)
				if !ss.LocalSeg {
					t.Fatalf("%s m=%d seg=%d: end-to-end pipeline not active", h.Name(), m, segSize)
				}
				res, err := ExecuteSegmentedSchedule(g, ss, Options{})
				if err != nil {
					t.Fatalf("%s m=%d seg=%d: %v", h.Name(), m, segSize, err)
				}
				if math.Abs(res.Makespan-ss.Makespan) > segTol {
					t.Errorf("%s m=%d seg=%d: measured %g != predicted %g",
						h.Name(), m, segSize, res.Makespan, ss.Makespan)
				}
				for c := 0; c < g.N(); c++ {
					if math.Abs(res.ClusterCompletion[c]-ss.Completion[c]) > segTol {
						t.Errorf("%s m=%d seg=%d cluster %d (streamed=%v): completion %g != predicted %g",
							h.Name(), m, segSize, c, ss.LocalSegmented[c],
							res.ClusterCompletion[c], ss.Completion[c])
					}
				}
			}
		}
	}
}

// TestSegmentedLocalExecutionStreams asserts the wire-level shape of the
// streamed local phase: clusters marked LocalSegmented move K local messages
// per chain hop instead of one whole message per tree edge, and at least one
// Grid5000 cluster streams at 16 MB.
func TestSegmentedLocalExecutionStreams(t *testing.T) {
	g := topology.Grid5000()
	m := int64(16 << 20)
	sp := sched.MustSegmentedProblem(g, 0, m, 256<<10, sched.Options{SegmentedLocal: true})
	ss := sched.ScheduleSegmented(sched.Mixed{}, sp)
	base := sched.ScheduleSegmented(sched.Mixed{}, sched.MustSegmentedProblem(g, 0, m, 256<<10, sched.Options{}))

	res, err := ExecuteSegmentedSchedule(g, ss, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := ExecuteSegmentedSchedule(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	var extra int64
	for c, on := range ss.LocalSegmented {
		if on {
			streamed++
			// A streamed cluster's chain has Nodes-1 hops, each moving K
			// messages; the whole-message tree moved Nodes-1 messages.
			extra += int64(g.Clusters[c].Nodes-1) * int64(sp.K-1)
		}
	}
	if streamed == 0 {
		t.Fatal("no Grid5000 cluster streamed at 16 MB / 256 KB")
	}
	if res.Messages != baseRes.Messages+extra {
		t.Errorf("streamed run moved %d messages, want %d (+%d over whole-message local)",
			res.Messages, baseRes.Messages+extra, extra)
	}
	if res.Bytes != baseRes.Bytes {
		t.Errorf("streaming changed total bytes: %d vs %d", res.Bytes, baseRes.Bytes)
	}
	if res.Makespan >= baseRes.Makespan {
		t.Errorf("streamed execution %g not faster than whole-message local %g", res.Makespan, baseRes.Makespan)
	}
}

// fuzzLocalGrid builds a single-cluster platform from fuzz knobs, with a
// dyadically quantised gap so analytic sums stay exact (the same regime as
// sched's engine-equivalence fuzzing).
func fuzzLocalGrid(nodes int, gFixed64, gPerMB64, lat64 uint8) *topology.Grid {
	fixed := float64(1+int(gFixed64%64)) * (1.0 / 64) * 1e-3
	perByte := float64(1+int(gPerMB64%64)) * (1.0 / 64) * 1e-8
	lat := float64(int(lat64%64)) * (1.0 / 64) * 1e-3
	intra := plogp.Params{L: lat, G: plogp.Linear(fixed, perByte)}
	return &topology.Grid{
		Clusters: []topology.Cluster{{Name: "c0", Nodes: nodes, Intra: intra}},
		Inter:    [][]plogp.Params{{{}}},
	}
}

// FuzzSegmentedLocalTree cross-validates the per-segment tree-timing model
// T_i(s, K) against the discrete-event simulator on single-cluster
// platforms: a root-only segmented "broadcast" exercises exactly the local
// phase. It pins (a) the K = 1 degeneracy — the whole-message path must be
// taken and must measure the whole-message prediction — and (b) the
// analytic-vs-simulated bound (~1e-8, the segTol contract) for streamed
// chains under dyadic gap quantisation.
func FuzzSegmentedLocalTree(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint8(32), uint8(2), uint8(4))
	f.Add(uint8(31), uint8(1), uint8(7), uint8(0), uint8(64))
	f.Add(uint8(2), uint8(63), uint8(63), uint8(63), uint8(1))
	f.Fuzz(func(t *testing.T, nodes8, gFixed, gPerMB, lat, k8 uint8) {
		nodes := 2 + int(nodes8%63)
		g := fuzzLocalGrid(nodes, gFixed, gPerMB, lat)
		m := int64(1 << 20)
		k := 1 + int(k8)
		segSize := (m + int64(k) - 1) / int64(k)
		sp, err := sched.NewSegmentedProblem(g, 0, m, segSize, sched.Options{SegmentedLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		ss := sched.ScheduleSegmented(sched.Mixed{}, sp)
		if sp.K == 1 {
			// Degeneracy: one segment keeps the coordinator-only path, byte
			// for byte.
			if ss.LocalSeg || ss.LocalSegmented != nil {
				t.Fatal("K=1 schedule carries local-segmentation state")
			}
			whole := intracluster.Predict(intracluster.Binomial, nodes, g.Clusters[0].Intra, m)
			if ss.Makespan != whole {
				t.Fatalf("K=1 makespan %g != whole-message prediction %g", ss.Makespan, whole)
			}
		} else if ss.LocalSegmented[0] {
			chain := intracluster.New(intracluster.Chain, nodes).SegmentedCompletion(g.Clusters[0].Intra,
				intracluster.SegmentSizes(sp.SegSize, sp.LastSize, sp.K), nil)
			if ss.Makespan != chain {
				t.Fatalf("streamed makespan %g != T(s,K) %g", ss.Makespan, chain)
			}
		}
		res, err := ExecuteSegmentedSchedule(g, ss, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-ss.Makespan) > segTol {
			t.Fatalf("nodes=%d K=%d streamed=%v: measured %g != predicted %g",
				nodes, sp.K, ss.LocalSeg && ss.LocalSegmented[0], res.Makespan, ss.Makespan)
		}
	})
}

// TestSegmentedLocalExecutionRandomMultiNode repeats the contract on random
// multi-node platforms (drawn links, drawn node counts, tree-based local
// phases) — the RandomClusteredGrid topology the local-segmentation
// experiments sweep.
func TestSegmentedLocalExecutionRandomMultiNode(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		r := stats.NewRand(stats.SplitSeed(91, int64(trial)))
		n := 3 + r.Intn(6)
		g := topology.RandomClusteredGrid(r, n)
		root := r.Intn(n)
		m := int64(8 << 20)
		segSize := int64(1 << (16 + trial%3))
		sp := sched.MustSegmentedProblem(g, root, m, segSize, sched.Options{SegmentedLocal: true})
		ss := sched.ScheduleSegmented(sched.ECEFLAT(), sp)
		res, err := ExecuteSegmentedSchedule(g, ss, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(res.Makespan-ss.Makespan) > segTol {
			t.Errorf("trial %d: measured %g != predicted %g", trial, res.Makespan, ss.Makespan)
		}
	}
}
