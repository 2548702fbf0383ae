package topology

import (
	"bytes"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"gridbcast/internal/plogp"
	"gridbcast/internal/stats"
)

func twoClusterGrid() *Grid {
	link := plogp.Params{L: 0.010, G: plogp.Constant(0.100)}
	return &Grid{
		Clusters: []Cluster{
			{Name: "a", Nodes: 4, Intra: plogp.FromBandwidth(5e-5, 1e-5, 100e6)},
			{Name: "b", Nodes: 8, BcastTime: 0.5},
		},
		Inter: [][]plogp.Params{
			{{}, link},
			{link, {}},
		},
	}
}

func TestGridValidateOK(t *testing.T) {
	g := twoClusterGrid()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	if g.N() != 2 || g.TotalNodes() != 12 {
		t.Errorf("N=%d TotalNodes=%d", g.N(), g.TotalNodes())
	}
	if g.Latency(0, 1) != 0.010 || g.Gap(0, 1, 123) != 0.100 {
		t.Error("accessors wrong")
	}
}

func TestGridValidateRejects(t *testing.T) {
	mk := func(mutate func(*Grid)) *Grid {
		g := twoClusterGrid()
		mutate(g)
		return g
	}
	cases := map[string]*Grid{
		"empty":          {},
		"short matrix":   mk(func(g *Grid) { g.Inter = g.Inter[:1] }),
		"short row":      mk(func(g *Grid) { g.Inter[0] = g.Inter[0][:1] }),
		"zero nodes":     mk(func(g *Grid) { g.Clusters[0].Nodes = 0 }),
		"negative T":     mk(func(g *Grid) { g.Clusters[1].BcastTime = -1 }),
		"bad link":       mk(func(g *Grid) { g.Inter[0][1] = plogp.Params{L: -1, G: plogp.Constant(1)} }),
		"no intra model": mk(func(g *Grid) { g.Clusters[1].BcastTime = 0 }),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: invalid grid accepted", name)
		}
	}
}

func TestGridClone(t *testing.T) {
	g := twoClusterGrid()
	c := g.Clone()
	c.Clusters[0].Nodes = 99
	c.Inter[0][1] = plogp.Params{L: 1, G: plogp.Constant(1)}
	if g.Clusters[0].Nodes == 99 || g.Inter[0][1].L == 1 {
		t.Error("Clone shares memory with original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := twoClusterGrid()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 2 || got.Clusters[1].BcastTime != 0.5 {
		t.Errorf("roundtrip lost data: %+v", got)
	}
	if got.Latency(1, 0) != 0.010 {
		t.Error("link params lost")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"clusters":[]}`)); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{`)); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	g := twoClusterGrid()
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() {
		t.Error("file roundtrip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRandomGridRanges(t *testing.T) {
	r := stats.NewRand(1)
	for trial := 0; trial < 20; trial++ {
		g := RandomGrid(r, 10)
		if err := g.Validate(); err != nil {
			t.Fatalf("random grid invalid: %v", err)
		}
		for i := 0; i < g.N(); i++ {
			c := g.Clusters[i]
			if c.BcastTime < Table2.TMin || c.BcastTime > Table2.TMax {
				t.Fatalf("T out of Table 2 range: %g", c.BcastTime)
			}
			for j := 0; j < g.N(); j++ {
				if i == j {
					continue
				}
				if l := g.Latency(i, j); l < Table2.LMin || l > Table2.LMax {
					t.Fatalf("L out of range: %g", l)
				}
				if gp := g.Gap(i, j, 1<<20); gp < Table2.GMin || gp > Table2.GMax {
					t.Fatalf("g out of range: %g", gp)
				}
			}
		}
	}
}

func TestRandomGridDeterministic(t *testing.T) {
	a := RandomGrid(stats.NewRand(7), 5)
	b := RandomGrid(stats.NewRand(7), 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && a.Latency(i, j) != b.Latency(i, j) {
				t.Fatal("same seed produced different grids")
			}
		}
	}
}

func TestRandomGridPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RandomGrid(stats.NewRand(1), 0)
}

func TestRandomSymmetricGrid(t *testing.T) {
	g := RandomSymmetricGrid(stats.NewRand(3), 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			if g.Latency(i, j) != g.Latency(j, i) {
				t.Fatal("latency matrix not symmetric")
			}
			if g.Gap(i, j, 1<<20) != g.Gap(j, i, 1<<20) {
				t.Fatal("gap matrix not symmetric")
			}
		}
	}
}

func TestGrid5000MatchesTable3(t *testing.T) {
	g := Grid5000()
	if err := g.Validate(); err != nil {
		t.Fatalf("Grid5000 invalid: %v", err)
	}
	if g.N() != 6 {
		t.Fatalf("N = %d, want 6", g.N())
	}
	if g.TotalNodes() != 88 {
		t.Fatalf("TotalNodes = %d, want 88 (31+29+6+1+1+20)", g.TotalNodes())
	}
	// Spot-check latencies against the published matrix (µs -> s).
	checks := []struct {
		i, j int
		us   float64
	}{
		{0, 1, 62.10}, {0, 2, 12181.52}, {0, 5, 5210.99},
		{3, 4, 242.47}, {5, 2, 5388.49}, {1, 3, 12198.03},
	}
	for _, c := range checks {
		if got := g.Latency(c.i, c.j); math.Abs(got-c.us*1e-6) > 1e-12 {
			t.Errorf("L[%d][%d] = %g, want %g µs", c.i, c.j, got*1e6, c.us)
		}
	}
	// Latency classes must map to decreasing bandwidth: a WAN 1 MB gap
	// must exceed a same-site 1 MB gap.
	if g.Gap(0, 2, 1<<20) <= g.Gap(0, 1, 1<<20) {
		t.Error("WAN gap should exceed same-site gap")
	}
}

func TestGrid5000NodeMatrix(t *testing.T) {
	m, assign := Grid5000NodeMatrix(nil, 0)
	if len(m) != 88 || len(assign) != 88 {
		t.Fatalf("matrix %dx, assignment %d, want 88", len(m), len(assign))
	}
	// Node 0 and 30 are both in cluster 0 (31 x Orsay).
	if assign[0] != 0 || assign[30] != 0 || assign[31] != 1 {
		t.Fatalf("assignment boundaries wrong: %v...", assign[:35])
	}
	if math.Abs(m[0][30]-47.56e-6) > 1e-12 {
		t.Errorf("intra latency = %g", m[0][30])
	}
	// Node 87 is in toulouse (cluster 5): latency to node 0 is 5210.99 µs.
	if math.Abs(m[0][87]-5210.99e-6) > 1e-12 {
		t.Errorf("inter latency = %g", m[0][87])
	}
	// Symmetry and zero diagonal.
	for i := range m {
		if m[i][i] != 0 {
			t.Fatal("diagonal not zero")
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Fatal("matrix not symmetric")
			}
		}
	}
}

func TestGrid5000NodeMatrixJitter(t *testing.T) {
	m, _ := Grid5000NodeMatrix(stats.NewRand(5), 0.05)
	base := 47.56e-6
	v := m[0][1]
	if v == base {
		t.Error("jitter had no effect")
	}
	if v < base*0.95-1e-15 || v > base*1.05+1e-15 {
		t.Errorf("jitter out of bounds: %g vs base %g", v, base)
	}
}

func TestGrid5000LatencySeconds(t *testing.T) {
	m := Grid5000LatencySeconds()
	if math.Abs(m[0][0]-47.56e-6) > 1e-15 {
		t.Errorf("diagonal conversion wrong: %g", m[0][0])
	}
}

// Property: every RandomGrid validates and has Table 2-consistent draws.
func TestRandomGridProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		g := RandomGrid(stats.NewRand(seed), n)
		return g.Validate() == nil && g.N() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEdgeCostsCachedAndConsistent(t *testing.T) {
	g := Grid5000()
	m := int64(1 << 20)
	a := g.EdgeCosts(m)
	if b := g.EdgeCosts(m); a != b {
		t.Error("repeated size did not hit the cache")
	}
	c := g.EdgeCosts(1 << 10)
	if c == a {
		t.Error("different sizes share a cache entry")
	}
	// Latency does not depend on size: every entry aliases one L.
	if &c.L[0] != &a.L[0] {
		t.Error("sizes 1 KiB and 1 MiB carry separate latency matrices")
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if i == j {
				continue
			}
			if a.G[i][j] != g.Gap(i, j, m) || a.L[i][j] != g.Latency(i, j) {
				t.Fatalf("cached cost %d->%d diverges from direct evaluation", i, j)
			}
			if a.WT()[j][i] != a.G[i][j]+a.L[i][j] {
				t.Fatalf("WT inconsistent at %d->%d", i, j)
			}
		}
	}
	// Concurrent lookups must be safe (run under -race).
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g.EdgeCosts(int64(1 << (10 + k%4)))
		}(k)
	}
	wg.Wait()
}

// TestValidateRemembersCostedSuccess: a costed grid's success is kept (the
// grid is immutable from then on), an uncosted grid is re-walked, since
// construction-time edits may still follow, and a failure is never kept.
func TestValidateRemembersCostedSuccess(t *testing.T) {
	g := twoClusterGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Clusters[0].Nodes = 0 // construction-time edit before costing
	if err := g.Validate(); err == nil {
		t.Fatal("edit after an uncosted Validate was not re-checked")
	}
	for k := 0; k < 2; k++ {
		if err := g.Validate(); err == nil {
			t.Fatalf("call %d: invalid grid accepted", k)
		}
	}
	g.Clusters[0].Nodes = 4
	g.EdgeCosts(1 << 20)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.valid.Load() {
		t.Error("success on a costed grid was not remembered")
	}
}
