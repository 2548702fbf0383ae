package sched

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// unboundedLadder is the segment-size search without the incumbent cut:
// every rung built in full through the public ScheduleSegmented, strictly
// smaller makespans adopted. Pipelined.BestContext must return exactly
// this.
func unboundedLadder(ep *EnginePool, pl Pipelined, g *topology.Grid, root int, m int64, opt Options) *SegmentedSchedule {
	ladder := pl.Ladder
	if len(ladder) == 0 {
		ladder = DefaultSegmentLadder(m)
	}
	var best *SegmentedSchedule
	for _, s := range ladder {
		ss := ep.ScheduleSegmented(pl.base(), MustSegmentedProblem(g, root, m, s, opt))
		if best == nil || ss.Makespan < best.Makespan {
			best = ss
		}
	}
	best.Heuristic = pl.Name()
	return best
}

// ladderModes are the three completion models the ladder serves.
var ladderModes = []struct {
	name string
	opt  Options
}{
	{"strict", Options{}},
	{"overlap", Options{Overlap: true}},
	{"seglocal", Options{SegmentedLocal: true}},
}

// ladderHeuristics are the paper's heuristics, Mixed, and one heuristic
// without a native segmented picker (its unsegmented tree is re-timed
// under the per-segment model).
func ladderHeuristics() []Heuristic {
	return append(Paper(), Mixed{}, Reference{Base: FlatTree{}})
}

// TestLadderBoundByteIdentical pins the incumbent cut's exactness: the
// bounded ladder returns the unbounded ladder's schedule in every field,
// on the paper's platform (below the engine gate), a 128-cluster random
// platform and a clustered one whose local trees stream, under every
// completion model. RandomGrid clusters have modelled local phases, so the end-to-end pipeline is the
// strict model there and is not run twice.
func TestLadderBoundByteIdentical(t *testing.T) {
	grids := []struct {
		name  string
		g     *topology.Grid
		root  int
		modes int // prefix of ladderModes
		sizes []int64
	}{
		{"grid5000", topology.Grid5000(), 0, 3, []int64{48<<10 + 7, 1<<20 - 3, 16<<20 + 11}},
		{"random128", topology.RandomGrid(stats.NewRand(7), 128), 5, 2, []int64{16<<20 + 11}},
		{"clustered16", topology.RandomClusteredGrid(stats.NewRand(3), 16), 2, 3, []int64{48<<10 + 7, 2<<20 + 5}},
	}
	for _, gr := range grids {
		for _, mode := range ladderModes[:gr.modes] {
			for _, m := range gr.sizes {
				ep, ref := NewEnginePool(), NewEnginePool()
				for _, h := range ladderHeuristics() {
					pl := Pipelined{Base: h}
					label := fmt.Sprintf("%s/%s/%d/%s", gr.name, mode.name, m, h.Name())
					got, err := pl.BestContext(context.Background(), ep, gr.g, gr.root, m, mode.opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want := unboundedLadder(ref, pl, gr.g, gr.root, m, mode.opt); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: bounded ladder diverges from the unbounded one\nbounded:   K=%d makespan %v\nunbounded: K=%d makespan %v",
							label, got.K, got.Makespan, want.K, want.Makespan)
					}
				}
			}
		}
	}
}

// checkRungBound checks the cut's two halves on one rung: joinBound never
// exceeds the unbounded schedule's makespan at any round, and a bounded
// build returns the unbounded schedule whenever its makespan is below the
// bound, and otherwise nil or a schedule at or above the bound.
func checkRungBound(t *testing.T, label string, ep *EnginePool, h Heuristic, sp *SegmentedProblem) {
	t.Helper()
	want := ep.ScheduleSegmented(h, sp)
	for _, e := range want.Events {
		if lb := joinBound(sp, e.To, e.Arrive); lb > want.Makespan {
			t.Fatalf("%s: round %d bound %v exceeds makespan %v", label, e.Round, lb, want.Makespan)
		}
	}
	above := math.Nextafter(want.Makespan, math.Inf(1))
	if got := ep.scheduleSegmented(h, sp, above, &fallbackTree{h: h}); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: build bounded just above its makespan diverges", label)
	}
	for _, b := range []float64{want.Makespan, want.Makespan / 2} {
		if got := ep.scheduleSegmented(h, sp, b, &fallbackTree{h: h}); got != nil && got.Makespan < b {
			t.Fatalf("%s: build bounded at %v returned makespan %v", label, b, got.Makespan)
		}
	}
}

// TestLadderBoundSound checks joinBound and the bounded build contract on
// every rung of the ladder, including clustered platforms under the
// end-to-end pipeline, where the bound drops T for streaming clusters.
func TestLadderBoundSound(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		grids := []*topology.Grid{
			topology.RandomGrid(stats.NewRand(seed), 20),
			topology.RandomClusteredGrid(stats.NewRand(seed), 20),
		}
		for gi, g := range grids {
			ep := NewEnginePool()
			for _, mode := range ladderModes {
				m := int64(2<<20 + seed)
				for _, s := range DefaultSegmentLadder(m) {
					sp := MustSegmentedProblem(g, int(seed), m, s, mode.opt)
					for _, h := range ladderHeuristics() {
						checkRungBound(t, fmt.Sprintf("seed %d grid %d %s s=%d %s", seed, gi, mode.name, s, h.Name()), ep, h, sp)
					}
				}
			}
		}
	}
}

// countingHeuristic is a heuristic without a native segmented picker that
// counts its unsegmented builds.
type countingHeuristic struct {
	Heuristic
	builds *int
}

func (c countingHeuristic) Schedule(p *Problem) *Schedule {
	*c.builds++
	return c.Heuristic.Schedule(p)
}

// TestLadderBuildsFallbackTreeOnce pins that a ladder search over a
// heuristic without a native segmented picker builds its unsegmented tree
// once, not once per rung and coordGuard pass, and still equals the
// unbounded ladder.
func TestLadderBuildsFallbackTreeOnce(t *testing.T) {
	g := topology.RandomClusteredGrid(stats.NewRand(3), 16)
	m := int64(16 << 20)
	for _, mode := range ladderModes {
		builds := 0
		pl := Pipelined{Base: countingHeuristic{Heuristic: ECEFLA(), builds: &builds}}
		got, err := pl.BestContext(context.Background(), NewEnginePool(), g, 2, m, mode.opt)
		if err != nil {
			t.Fatal(err)
		}
		if builds != 1 {
			t.Errorf("%s: %d unsegmented builds over %d rungs, want 1", mode.name, builds, len(DefaultSegmentLadder(m)))
		}
		if want := unboundedLadder(NewEnginePool(), pl, g, 2, m, mode.opt); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ladder diverges from the unbounded one", mode.name)
		}
	}
}

// FuzzPipelinedLadder fuzzes platforms, roots, sizes, completion models
// and heuristics: the bounded ladder must equal the unbounded one, and
// every rung must satisfy checkRungBound.
func FuzzPipelinedLadder(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint16(300), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(17), uint8(4), uint16(4000), uint8(1), uint8(5), false)
	f.Add(int64(3), uint8(9), uint8(2), uint16(1500), uint8(2), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, n8, root8 uint8, kb uint16, mode8, h8 uint8, clustered bool) {
		n := 2 + int(n8%23)
		var g *topology.Grid
		if clustered {
			g = topology.RandomClusteredGrid(stats.NewRand(seed), n)
		} else {
			g = topology.RandomGrid(stats.NewRand(seed), n)
		}
		root := int(root8) % n
		m := int64(kb)<<10 + int64(seed&1023)
		mode := ladderModes[int(mode8)%len(ladderModes)]
		hs := ladderHeuristics()
		pl := Pipelined{Base: hs[int(h8)%len(hs)]}
		got, err := pl.BestContext(context.Background(), NewEnginePool(), g, root, m, mode.opt)
		if err != nil {
			t.Fatal(err)
		}
		ep := NewEnginePool()
		if want := unboundedLadder(ep, pl, g, root, m, mode.opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("bounded ladder diverges: K=%d %v vs K=%d %v", got.K, got.Makespan, want.K, want.Makespan)
		}
		for _, s := range DefaultSegmentLadder(m) {
			checkRungBound(t, fmt.Sprintf("s=%d", s), ep, pl.base(), MustSegmentedProblem(g, root, m, s, mode.opt))
		}
	})
}
