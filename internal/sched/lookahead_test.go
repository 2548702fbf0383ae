package sched

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// allReceiverTrace is the replay log recorded the straightforward way: one
// delta list per round, diffing every receiver 0..N-1 against the previous
// round. It is the oracle for tracedPick's flat log, which diffs only the
// receivers that can move.
type allReceiverTrace struct {
	e            *ecefEngine
	initK, prevK []float64
	initS, prevS []int32
	initF, prevF []float64
	initT, prevT []int32
	kd           [][]kDelta
	fd           [][]fDelta
}

func (t *allReceiverTrace) segName() string { return t.e.segName() }

func (t *allReceiverTrace) pickSeg(p *SegmentedProblem, st *segState) (int, int) {
	i, j := t.e.pickSeg(p, st)
	rc, ls := &t.e.rc, &t.e.lookaheadSet
	if t.kd == nil {
		t.initK, t.prevK = slices.Clone(rc.cKey), slices.Clone(rc.cKey)
		t.initS, t.prevS = slices.Clone(rc.cSnd), slices.Clone(rc.cSnd)
		if ls.la != nil {
			t.initF, t.prevF = slices.Clone(ls.fVal), slices.Clone(ls.fVal)
			t.initT, t.prevT = slices.Clone(ls.fTop), slices.Clone(ls.fTop)
		}
		t.kd, t.fd = [][]kDelta{nil}, [][]fDelta{nil}
		return i, j
	}
	var kds []kDelta
	var fds []fDelta
	for x := 0; x < p.N; x++ {
		if rc.cKey[x] != t.prevK[x] || rc.cSnd[x] != t.prevS[x] {
			kds = append(kds, kDelta{j: int32(x), snd: rc.cSnd[x], key: rc.cKey[x]})
			t.prevK[x], t.prevS[x] = rc.cKey[x], rc.cSnd[x]
		}
	}
	if ls.la != nil {
		for x := 0; x < p.N; x++ {
			if ls.fVal[x] != t.prevF[x] || ls.fTop[x] != t.prevT[x] {
				fds = append(fds, fDelta{j: int32(x), top: ls.fTop[x], val: ls.fVal[x]})
				t.prevF[x], t.prevT[x] = ls.fVal[x], ls.fTop[x]
			}
		}
	}
	t.kd, t.fd = append(t.kd, kds), append(t.fd, fds)
	return i, j
}

// assertTraceMatchesAllReceiverDiff builds p's trace through ep and checks
// it against the all-receiver oracle built on a fresh pool: same initial
// state, and round by round the same deltas in the same order.
func assertTraceMatchesAllReceiverDiff(t *testing.T, label string, ep *EnginePool, h ecef, p *Problem) {
	t.Helper()
	sc, tr := ScheduleTraced(ep, h, p)
	sp := oneSegment(p)
	ref := &allReceiverTrace{e: NewEnginePool().ecefFor(h, sp)}
	if want := runSegmented(ref, sp, math.Inf(1)).whole(); !reflect.DeepEqual(sc, want) {
		t.Fatalf("%s: traced schedule differs from the oracle's", label)
	}
	if !reflect.DeepEqual(tr.initK, ref.initK) || !reflect.DeepEqual(tr.initS, ref.initS) ||
		!reflect.DeepEqual(tr.initF, ref.initF) || !reflect.DeepEqual(tr.initT, ref.initT) {
		t.Fatalf("%s: initial state differs", label)
	}
	if len(tr.kOff) != p.N || len(tr.fOff) != p.N || cap(tr.kOff) != p.N || cap(tr.fOff) != p.N {
		t.Fatalf("%s: offsets len %d/%d cap %d/%d, want %d exactly", label,
			len(tr.kOff), len(tr.fOff), cap(tr.kOff), cap(tr.fOff), p.N)
	}
	if len(ref.kd) != p.N-1 {
		t.Fatalf("%s: oracle recorded %d rounds, want %d", label, len(ref.kd), p.N-1)
	}
	var nk, nf int
	for r := range ref.kd {
		kd := tr.kd[tr.kOff[r]:tr.kOff[r+1]]
		fd := tr.fd[tr.fOff[r]:tr.fOff[r+1]]
		if len(kd) != len(ref.kd[r]) || len(fd) != len(ref.fd[r]) ||
			(len(kd) > 0 && !reflect.DeepEqual(kd, ref.kd[r])) || (len(fd) > 0 && !reflect.DeepEqual(fd, ref.fd[r])) {
			t.Fatalf("%s: round %d deltas differ:\n got %v %v\nwant %v %v", label, r, kd, fd, ref.kd[r], ref.fd[r])
		}
		nk, nf = nk+len(kd), nf+len(fd)
	}
	if len(tr.kd) != nk || len(tr.fd) != nf {
		t.Fatalf("%s: flat arrays hold %d/%d deltas, rounds cover %d/%d", label, len(tr.kd), len(tr.fd), nk, nf)
	}
}

// TestTraceMatchesAllReceiverDiff pins the flat trace, recorded from the
// receivers outside A plus each round's committed one, to the all-receiver
// diff: the paper's platform and seeded random grids, every root of
// GRID5000, all four ECEF kinds, strict and overlap models, one pool
// reused throughout so templates are partly extracted by earlier builds.
func TestTraceMatchesAllReceiverDiff(t *testing.T) {
	ep := NewEnginePool()
	g5k := topology.Grid5000()
	for _, overlap := range []bool{false, true} {
		for root := 0; root < g5k.N(); root++ {
			p := MustProblem(g5k, root, 1<<20, Options{Overlap: overlap})
			for _, h := range ECEFFamily() {
				assertTraceMatchesAllReceiverDiff(t, fmt.Sprintf("grid5000 root %d overlap %t %s", root, overlap, h.Name()), ep, h.(ecef), p)
			}
		}
		for seed := int64(1); seed <= 6; seed++ {
			r := stats.NewRand(seed)
			n := 2 + r.Intn(90)
			g := topology.RandomGrid(r, n)
			for _, m := range []int64{64 << 10, 4 << 20} {
				p := MustProblem(g, r.Intn(n), m, Options{Overlap: overlap})
				for _, h := range ECEFFamily() {
					assertTraceMatchesAllReceiverDiff(t, fmt.Sprintf("random seed %d n %d m %d overlap %t %s", seed, n, m, overlap, h.Name()), ep, h.(ecef), p)
				}
			}
		}
	}
}

// TestEnginePoolInterleavedBuildsMatchFresh pins in-place template
// extraction: on one pool, unsegmented builds, traced builds and
// incumbent-cut ladder rungs interleave roots, sizes and kinds, so each
// build starts on templates that earlier builds — of other roots, kinds
// and problem shapes sharing the same W — have partly extracted. Every
// schedule must equal a fresh pool's build bit for bit.
func TestEnginePoolInterleavedBuildsMatchFresh(t *testing.T) {
	g := topology.RandomGrid(stats.NewRand(7), 48)
	sizes := []int64{256 << 10, 1 << 20, 3<<20 + 1}
	heuristics := append(Paper(), Mixed{})
	ep := NewEnginePool()
	r := stats.NewRand(9)
	for step := 0; step < 150; step++ {
		root, m := r.Intn(g.N()), sizes[r.Intn(len(sizes))]
		h := heuristics[r.Intn(len(heuristics))]
		opt := Options{Overlap: r.Intn(2) == 0}
		label := fmt.Sprintf("step %d %s root %d m %d overlap %t", step, h.Name(), root, m, opt.Overlap)
		switch step % 3 {
		case 0:
			p := MustProblem(g, root, m, opt)
			assertIdentical(t, label, ep.Schedule(h, p), NewEnginePool().Schedule(h, p))
		case 1:
			p := MustProblem(g, root, m, opt)
			got, _ := ScheduleTraced(ep, h, p)
			assertIdentical(t, label+" traced", got, NewEnginePool().Schedule(h, p))
		default:
			// A ladder rung cut against an incumbent: the rung's own
			// unbounded makespan, scaled, so some rungs finish and some
			// are abandoned mid-build.
			sp := MustSegmentedProblem(g, root, m, m/4, opt)
			full := NewEnginePool().ScheduleSegmented(h, sp)
			bound := math.Inf(1)
			if r.Intn(3) > 0 {
				bound = full.Makespan * (0.9 + 0.2*r.Float64())
			}
			fb := &fallbackTree{h: h}
			got := ep.scheduleSegmented(h, sp, bound, fb)
			want := NewEnginePool().scheduleSegmented(h, sp, bound, &fallbackTree{h: h})
			if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rung bound %g: pooled and fresh rungs differ", label, bound)
			}
		}
	}
}
