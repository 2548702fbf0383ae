package intracluster

import (
	"math"
	"testing"

	"gridbcast/internal/plogp"
)

// segTestParams is a size-dependent gap (fixed part + per-byte cost), the
// regime where segmentation actually trades per-segment overhead against
// pipelining; the constant-gap testParams makes every segment as expensive
// as the whole message.
var segTestParams = plogp.Params{L: 0.001, G: plogp.Linear(0.0005, 1e-8)}

// TestSegmentedCompletionOneSegmentGolden pins the K = 1 degeneracy: with a
// single segment carrying the whole message and zero ready time, the
// pipelined recurrence must reproduce Completion bit for bit, for every
// shape, node count and parameter set (including send/receive overheads).
func TestSegmentedCompletionOneSegmentGolden(t *testing.T) {
	withOv := segTestParams
	withOv.Os = plogp.Constant(0.0007)
	withOv.Or = plogp.Constant(0.0003)
	for _, params := range []plogp.Params{testParams, segTestParams, withOv} {
		for _, shape := range Shapes {
			for _, p := range []int{2, 3, 7, 16, 33} {
				for _, m := range []int64{1, 1 << 10, 1 << 20} {
					tree := New(shape, p)
					whole := tree.Completion(params, m)
					seg := tree.SegmentedCompletion(params, []int64{m}, nil)
					if seg != whole {
						t.Fatalf("%v p=%d m=%d: K=1 segmented %v != whole-message %v",
							shape, p, m, seg, whole)
					}
					if pr := tree.SegmentedCompletion(params, SegmentSizes(m, m, 1), nil); pr != Predict(shape, p, params, m) {
						t.Fatalf("%v p=%d m=%d: SegmentSizes K=1 completion diverges from Predict", shape, p, m)
					}
				}
			}
		}
	}
}

// TestSegmentedChainClosedForm checks the pipelined chain against its closed
// form under a gap-only parameter set: segment q reaches node r at
// (q+r)·g(s) + r·L, so completion is (p-2+K)·g(s) + (p-1)·L.
func TestSegmentedChainClosedForm(t *testing.T) {
	params := plogp.Params{L: 0.003, G: plogp.Constant(0.010)}
	for _, p := range []int{2, 5, 12} {
		for _, k := range []int{1, 2, 8} {
			sizes := SegmentSizes(1<<17, 1<<17, k)
			got := New(Chain, p).SegmentedCompletion(params, sizes, nil)
			want := float64(p-2+k)*0.010 + float64(p-1)*0.003
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("chain p=%d K=%d: completion %g, want %g", p, k, got, want)
			}
		}
	}
}

// TestSegmentedPipeliningWinsOnDeepTrees: for deep trees with
// size-dependent gaps, splitting a large message must beat the
// whole-message broadcast — the T_i(s,K) < T_i(m) payoff the wide-area
// pipeline extends below the coordinators. Chains are the canonical deep
// shape; shallow fan-out trees (binomial, flat) re-pay the fixed gap per
// segment at the root and can lose, which is why the scheduler applies
// T_i(s,K) through a per-cluster min with T_i(m) rather than always.
func TestSegmentedPipeliningWinsOnDeepTrees(t *testing.T) {
	m := int64(16 << 20)
	for _, p := range []int{16, 64} {
		whole := Predict(Chain, p, segTestParams, m)
		seg := New(Chain, p).SegmentedCompletion(segTestParams, SegmentSizes(m/16, m/16, 16), nil)
		if seg >= whole {
			t.Errorf("chain p=%d: segmented %g did not beat whole-message %g", p, seg, whole)
		}
	}
}

// TestSegmentedArrivalsReadyTimes checks the staggered-ready semantics: hold
// times are monotone in the ready vector, the root rows echo ready, and a
// uniformly shifted ready vector shifts completion by at most the shift
// (pipelining can absorb part of a stagger, never amplify it).
func TestSegmentedArrivalsReadyTimes(t *testing.T) {
	tree := New(Binomial, 12)
	sizes := SegmentSizes(1<<18, 1<<17, 5)
	base := tree.SegmentedArrivals(segTestParams, sizes, nil)
	ready := []float64{0, 0.001, 0.002, 0.003, 0.004}
	staggered := tree.SegmentedArrivals(segTestParams, sizes, ready)
	for q, r := range ready {
		if staggered[0][q] != r {
			t.Fatalf("root hold[%d] = %g, want ready %g", q, staggered[0][q], r)
		}
	}
	for n := 0; n < tree.P; n++ {
		for q := range sizes {
			if staggered[n][q] < base[n][q] {
				t.Errorf("node %d seg %d: staggered hold %g below zero-ready hold %g", n, q, staggered[n][q], base[n][q])
			}
			if staggered[n][q] > base[n][q]+0.004+1e-12 {
				t.Errorf("node %d seg %d: stagger amplified (%g vs %g)", n, q, staggered[n][q], base[n][q])
			}
		}
	}
}

// TestSegmentedLastSegmentRemainder checks that a short final segment is
// costed at its own size, not the regular segment size.
func TestSegmentedLastSegmentRemainder(t *testing.T) {
	tree := New(Chain, 4)
	full := tree.SegmentedCompletion(segTestParams, SegmentSizes(1<<18, 1<<18, 4), nil)
	short := tree.SegmentedCompletion(segTestParams, SegmentSizes(1<<18, 1<<10, 4), nil)
	if short >= full {
		t.Errorf("remainder segment not cheaper: %g vs %g", short, full)
	}
}

// TestSegmentedPanics covers the argument contracts.
func TestSegmentedPanics(t *testing.T) {
	tree := New(Flat, 3)
	for name, fn := range map[string]func(){
		"no sizes":     func() { tree.SegmentedCompletion(testParams, nil, nil) },
		"ready length": func() { tree.SegmentedCompletion(testParams, []int64{1, 1}, []float64{0}) },
		"bad K":        func() { SegmentSizes(1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
