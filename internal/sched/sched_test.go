package sched

import (
	"math"
	"testing"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/plogp"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// tinyGrid builds a deterministic 3-cluster grid: link costs are chosen so
// hand-computed schedules are easy to verify.
//
//	W[0][1] = 0.1+0.01 = 0.11   W[0][2] = 0.3+0.02 = 0.32
//	W[1][2] = 0.1+0.01 = 0.11   W[1][0] = 0.11
//	W[2][*] = 0.32
//	T = [0.05, 0.2, 1.0]
func tinyGrid() *topology.Grid {
	fast := plogp.Params{L: 0.01, G: plogp.Constant(0.1)}
	slow := plogp.Params{L: 0.02, G: plogp.Constant(0.3)}
	return &topology.Grid{
		Clusters: []topology.Cluster{
			{Name: "a", Nodes: 1, BcastTime: 0.05},
			{Name: "b", Nodes: 1, BcastTime: 0.2},
			{Name: "c", Nodes: 1, BcastTime: 1.0},
		},
		Inter: [][]plogp.Params{
			{{}, fast, slow},
			{fast, {}, fast},
			{slow, slow, {}},
		},
	}
}

func tinyProblem(t *testing.T) *Problem {
	t.Helper()
	p, err := NewProblem(tinyGrid(), 0, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	g := tinyGrid()
	if _, err := NewProblem(g, -1, 1, Options{}); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := NewProblem(g, 3, 1, Options{}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := NewProblem(g, 0, -5, Options{}); err == nil {
		t.Error("negative message accepted")
	}
	bad := &topology.Grid{}
	if _, err := NewProblem(bad, 0, 1, Options{}); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestProblemCostMatrices(t *testing.T) {
	p := tinyProblem(t)
	if math.Abs(p.w(0, 1)-0.11) > 1e-12 || math.Abs(p.w(0, 2)-0.32) > 1e-12 {
		t.Errorf("W = G + L: %v + %v", p.G, p.L)
	}
	if p.T[2] != 1.0 {
		t.Errorf("T = %v", p.T)
	}
}

func TestProblemPredictsIntraT(t *testing.T) {
	g := tinyGrid()
	g.Clusters[0] = topology.Cluster{
		Name:  "a",
		Nodes: 8,
		Intra: plogp.Params{L: 0.001, G: plogp.Constant(0.010)},
	}
	p, err := NewProblem(g, 0, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := intracluster.Predict(intracluster.Binomial, 8, g.Clusters[0].Intra, 1<<20)
	if math.Abs(p.T[0]-want) > 1e-12 {
		t.Errorf("T[0] = %g, want predicted %g", p.T[0], want)
	}
}

func TestFlatTreeSchedule(t *testing.T) {
	p := tinyProblem(t)
	sc := FlatTree{}.Schedule(p)
	if err := sc.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Root sends to 1 then 2: send 1 at [0,0.1], arrive 0.11;
	// send 2 at [0.1, 0.4], arrive 0.42.
	if sc.Events[0].To != 1 || sc.Events[1].To != 2 {
		t.Fatalf("flat order wrong: %+v", sc.Events)
	}
	if math.Abs(sc.RT[1]-0.11) > 1e-9 || math.Abs(sc.RT[2]-0.42) > 1e-9 {
		t.Errorf("RT = %v", sc.RT)
	}
	// Completions: root idle at 0.4 -> 0.45; c1: 0.11+0.2=0.31; c2: 1.42.
	if math.Abs(sc.Makespan-1.42) > 1e-9 {
		t.Errorf("makespan = %g, want 1.42", sc.Makespan)
	}
}

func TestFlatTreeRootRotation(t *testing.T) {
	p := MustProblem(tinyGrid(), 1, 1<<20, Options{})
	sc := FlatTree{}.Schedule(p)
	if err := sc.Validate(p); err != nil {
		t.Fatal(err)
	}
	if sc.Events[0].From != 1 || sc.Events[0].To != 2 {
		t.Errorf("rooted at 1, first event should be 1->2: %+v", sc.Events[0])
	}
}

func TestFEFPicksCheapestEdge(t *testing.T) {
	p := tinyProblem(t)
	sc := FEF{}.Schedule(p)
	if err := sc.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Cheapest edge from {0} is 0->1 (0.11); then cheapest from {0,1} is
	// 1->2 (0.11), even though 1 only holds the message at 0.11.
	if sc.Events[0].To != 1 || sc.Events[1].From != 1 || sc.Events[1].To != 2 {
		t.Fatalf("FEF order wrong: %+v", sc.Events)
	}
	// 1's send starts at its arrival (0.11), so 2 arrives at 0.22.
	if math.Abs(sc.RT[2]-0.22) > 1e-9 {
		t.Errorf("RT[2] = %g, want 0.22", sc.RT[2])
	}
}

func TestECEFConsidersSenderAvailability(t *testing.T) {
	p := tinyProblem(t)
	sc := ECEF().Schedule(p)
	if err := sc.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Round 1: only 0 can send; 0->1 is cheapest (0.11 < 0.32).
	// Round 2: candidates 0->2 at 0.1+0.32=0.42 vs 1->2 at 0.11+0.11=0.22.
	if sc.Events[1].From != 1 {
		t.Errorf("ECEF should relay through 1: %+v", sc.Events[1])
	}
	if math.Abs(sc.Makespan-(0.22+1.0)) > 1e-9 {
		t.Errorf("makespan = %g, want 1.22", sc.Makespan)
	}
}

func TestAllHeuristicsProduceValidSchedules(t *testing.T) {
	r := stats.NewRand(11)
	all := append(Paper(), Mixed{}, FEF{Weight: WeightFull}, Heuristic(Optimal{}))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(7)
		g := topology.RandomGrid(r, n)
		root := r.Intn(n)
		p := MustProblem(g, root, 1<<20, Options{})
		for _, h := range all {
			sc := h.Schedule(p)
			if err := sc.Validate(p); err != nil {
				t.Fatalf("%s on n=%d: %v", h.Name(), n, err)
			}
			if sc.Makespan <= 0 {
				t.Fatalf("%s: non-positive makespan", h.Name())
			}
		}
	}
}

func TestSingleClusterGridTrivial(t *testing.T) {
	g := &topology.Grid{
		Clusters: []topology.Cluster{{Name: "solo", Nodes: 1, BcastTime: 0.3}},
		Inter:    [][]plogp.Params{{{}}},
	}
	p := MustProblem(g, 0, 1, Options{})
	for _, h := range Paper() {
		sc := h.Schedule(p)
		if len(sc.Events) != 0 || math.Abs(sc.Makespan-0.3) > 1e-12 {
			t.Errorf("%s: events=%d makespan=%g", h.Name(), len(sc.Events), sc.Makespan)
		}
	}
}

func TestECEFLATPrioritisesSlowClusters(t *testing.T) {
	// The max-lookahead penalises receivers that still leave the slow
	// cluster 2 (T=1.0) in B, so ECEF-LAT serves cluster 2 in the very
	// first round (directly, 0->2), unlike ECEF which relays to it last.
	p := tinyProblem(t)
	scLAT := ECEFLAT().Schedule(p)
	if scLAT.Events[0].To != 2 {
		t.Errorf("ECEF-LAT first receiver = %d, want slow cluster 2", scLAT.Events[0].To)
	}
	scECEF := ECEF().Schedule(p)
	if scECEF.Events[0].To != 1 {
		t.Errorf("ECEF first receiver = %d, want fast cluster 1", scECEF.Events[0].To)
	}
}

func TestBottomUpTargetsSlowestFirst(t *testing.T) {
	p := tinyProblem(t)
	sc := BottomUp{}.Schedule(p)
	if err := sc.Validate(p); err != nil {
		t.Fatal(err)
	}
	// Cluster 2 has T=1.0 and the worst min service time, so BottomUp
	// serves it in the first round.
	if sc.Events[0].To != 2 {
		t.Errorf("BottomUp first receiver = %d, want 2", sc.Events[0].To)
	}
}

func TestMixedSwitchesOnSize(t *testing.T) {
	r := stats.NewRand(3)
	small := MustProblem(topology.RandomGrid(r, 5), 0, 1<<20, Options{})
	large := MustProblem(topology.RandomGrid(r, 20), 0, 1<<20, Options{})
	m := Mixed{}
	if got := m.Schedule(small).Makespan; got != ECEFLA().Schedule(small).Makespan {
		t.Errorf("small grid should use ECEF-LA (got %g)", got)
	}
	if got := m.Schedule(large).Makespan; got != ECEFLAT().Schedule(large).Makespan {
		t.Errorf("large grid should use ECEF-LAT (got %g)", got)
	}
	if m.Schedule(small).Heuristic != "Mixed" {
		t.Error("schedule should carry the Mixed name")
	}
	custom := Mixed{Threshold: 3}
	if custom.Schedule(small).Makespan != ECEFLAT().Schedule(small).Makespan {
		t.Error("custom threshold not honoured")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FlatTree", "FEF", "ECEF", "ECEF-LA", "ECEF-LAt", "ECEF-LAT", "BottomUp", "Mixed", "FEF-gap+lat"} {
		h, ok := ByName(name)
		if !ok || h.Name() != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name resolved")
	}
}

func TestBestOf(t *testing.T) {
	p := tinyProblem(t)
	best, spans := BestOf(Paper(), p)
	if len(spans) != len(Paper()) {
		t.Fatalf("spans = %d", len(spans))
	}
	for _, s := range spans {
		if best.Makespan > s+1e-12 {
			t.Errorf("best %g worse than some heuristic %g", best.Makespan, s)
		}
	}
}

func TestScheduleOrder(t *testing.T) {
	p := tinyProblem(t)
	sc := FlatTree{}.Schedule(p)
	order := sc.Order()
	if len(order) != 3 || order[0] != 0 {
		t.Errorf("order = %v", order)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := tinyProblem(t)
	base := func() *Schedule { return ECEF().Schedule(p) }
	mutations := map[string]func(*Schedule){
		"drop event":     func(s *Schedule) { s.Events = s.Events[:1] },
		"bad makespan":   func(s *Schedule) { s.Makespan += 1 },
		"bad RT":         func(s *Schedule) { s.RT[s.Events[0].To] += 0.5 },
		"bad arrive":     func(s *Schedule) { s.Events[0].Arrive += 0.5 },
		"self receive":   func(s *Schedule) { s.Events[0].To = s.Root },
		"bad completion": func(s *Schedule) { s.Completion[0] += 1 },
		"overlap":        func(s *Schedule) { s.Events[1].Start = -1 },
	}
	for name, mutate := range mutations {
		sc := base()
		mutate(sc)
		if sc.Validate(p) == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestPredictBinomialGridUnaware(t *testing.T) {
	g := topology.Grid5000()
	m := int64(1 << 20)
	got := PredictBinomialGridUnaware(g, 0, m)
	if got <= 0 {
		t.Fatalf("non-positive prediction %g", got)
	}
	// The grid-unaware binomial must be worse than the best grid-aware
	// schedule on the 88-machine platform (the paper's Figure 6 story).
	p := MustProblem(g, 0, m, Options{})
	best, _ := BestOf(Paper(), p)
	if got <= best.Makespan {
		t.Errorf("grid-unaware binomial (%g) should lose to best heuristic (%g)", got, best.Makespan)
	}
}

func TestPredictBinomialGridUnawareMonotoneInSize(t *testing.T) {
	g := topology.Grid5000()
	small := PredictBinomialGridUnaware(g, 0, 1<<10)
	large := PredictBinomialGridUnaware(g, 0, 1<<22)
	if small >= large {
		t.Errorf("prediction not monotone: %g vs %g", small, large)
	}
}

func TestNodeLayoutRotation(t *testing.T) {
	g := topology.Grid5000()
	nodes := Layout(g, 2)
	if nodes[0].Cluster != 2 || nodes[0].Rank != 0 {
		t.Errorf("layout does not start at root cluster: %+v", nodes[0])
	}
	if len(nodes) != 88 {
		t.Errorf("len = %d", len(nodes))
	}
}
