package sched

import (
	"math"
	"reflect"
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// equivalenceHeuristics is every heuristic with a raw picker, i.e. every
// policy the incremental engine replaces.
func equivalenceHeuristics() []Heuristic {
	return append(Paper(), FEF{Weight: WeightFull})
}

// assertIdentical fails unless the two schedules are identical in every
// field: events (rounds, pairs, exact float timings), RT, Idle, Completion
// and makespan. Exact float equality is intentional — the engine must
// replicate the naive pickers' arithmetic bit for bit.
func assertIdentical(t *testing.T, label string, inc, ref *Schedule) {
	t.Helper()
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("%s: incremental schedule diverges from reference\nincremental: %+v\nreference:   %+v", label, inc, ref)
	}
}

// TestEngineMatchesReferenceGrid5000 checks every heuristic on the paper's
// 88-machine platform, at several message sizes and every root.
func TestEngineMatchesReferenceGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			p := MustProblem(g, root, m, Options{})
			for _, h := range equivalenceHeuristics() {
				inc := h.Schedule(p)
				ref := Reference{Base: h}.Schedule(p)
				assertIdentical(t, h.Name(), inc, ref)
				if err := inc.Validate(p); err != nil {
					t.Fatalf("%s: %v", h.Name(), err)
				}
			}
		}
	}
}

// TestEngineMatchesReferenceRandom checks every heuristic on seeded random
// platforms covering small and mid-size grids, both completion models and
// both symmetry settings.
func TestEngineMatchesReferenceRandom(t *testing.T) {
	const platforms = 24
	for trial := 0; trial < platforms; trial++ {
		r := stats.NewRand(stats.SplitSeed(99, int64(trial)))
		n := 2 + r.Intn(60)
		var g *topology.Grid
		if trial%2 == 0 {
			g = topology.RandomGrid(r, n)
		} else {
			g = topology.RandomSymmetricGrid(r, n)
		}
		p := MustProblem(g, r.Intn(n), 1<<20, Options{Overlap: trial%3 == 0})
		for _, h := range equivalenceHeuristics() {
			inc := h.Schedule(p)
			ref := Reference{Base: h}.Schedule(p)
			assertIdentical(t, h.Name(), inc, ref)
		}
	}
}

// TestEngineMatchesReferenceLargeGrid spot-checks one large platform per
// heuristic, the regime the incremental engine was built for.
func TestEngineMatchesReferenceLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid equivalence is slow with the reference pickers")
	}
	g := topology.RandomGrid(stats.NewRand(7), 192)
	p := MustProblem(g, 3, 1<<20, Options{Overlap: true})
	for _, h := range equivalenceHeuristics() {
		inc := h.Schedule(p)
		ref := Reference{Base: h}.Schedule(p)
		assertIdentical(t, h.Name(), inc, ref)
	}
}

// TestMixedMatchesReference exercises the composite Mixed heuristic through
// the Reference wrapper (it has no raw picker of its own).
func TestMixedMatchesReference(t *testing.T) {
	r := stats.NewRand(5)
	for _, n := range []int{4, 10, 11, 30} {
		p := MustProblem(topology.RandomGrid(r, n), 0, 1<<20, Options{})
		inc := Mixed{}.Schedule(p)
		ref := Reference{Base: Mixed{}}.Schedule(p)
		assertIdentical(t, "Mixed", inc, ref)
	}
}

// TestReferenceKeepsName makes sure the wrapper produces schedules carrying
// the base heuristic's name, so whole-struct comparisons are meaningful.
func TestReferenceKeepsName(t *testing.T) {
	p := tinyProblem(t)
	sc := Reference{Base: ECEFLAT()}.Schedule(p)
	if sc.Heuristic != "ECEF-LAT" {
		t.Errorf("name = %q", sc.Heuristic)
	}
}

// TestEngineSingleSenderChain pins the engine on a degenerate platform where
// one sender dominates: the lazy re-keying path is exercised every round.
func TestEngineSingleSenderChain(t *testing.T) {
	// Star topology: root is vastly better than anyone else, so its avail
	// moves every round and every cached key goes stale.
	n := 12
	g := topology.RandomGrid(stats.NewRand(42), n)
	for j := 1; j < n; j++ {
		g.Inter[0][j].L = 1e-4
		g.Inter[0][j].G = g.Inter[0][1].G
	}
	p := MustProblem(g, 0, 1<<20, Options{})
	for _, h := range equivalenceHeuristics() {
		inc := h.Schedule(p)
		ref := Reference{Base: h}.Schedule(p)
		assertIdentical(t, h.Name(), inc, ref)
	}
	sc := ECEF().Schedule(p)
	if err := sc.Validate(p); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sc.Makespan) {
		t.Fatal("NaN makespan")
	}
}

// TestReferenceComposites pins the Reference wrapper's handling of the
// composite heuristics: it must force the naive path recursively instead of
// silently delegating back to the incremental engine.
func TestReferenceComposites(t *testing.T) {
	r := stats.NewRand(9)
	for _, n := range []int{6, 30} {
		p := MustProblem(topology.RandomGrid(r, n), 0, 1<<20, Options{})
		inc := Mixed{}.Schedule(p)
		ref := Reference{Base: Mixed{}}.Schedule(p)
		assertIdentical(t, "Mixed via Reference", inc, ref)
		incR := Refined{Base: ECEFLA(), MaxRounds: 1}.Schedule(p)
		refR := Reference{Base: Refined{Base: ECEFLA(), MaxRounds: 1}}.Schedule(p)
		assertIdentical(t, "Refined via Reference", incR, refR)
	}
}
