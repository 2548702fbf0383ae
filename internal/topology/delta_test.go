package topology

import (
	"math"
	"testing"

	"gridbcast/internal/stats"
)

func TestApplyDeltaScalesOnlyTargetRowAndColumn(t *testing.T) {
	r := stats.NewRand(5)
	g := RandomSizedGrid(r, 6)
	const c = 2
	ng, err := g.ApplyDelta(Delta{Cluster: c, OutGapScale: 2, OutLatScale: 3, InGapScale: 0.5, InLatScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	const m = int64(1 << 20)
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if i == j {
				continue
			}
			wantG, wantL := g.Gap(i, j, m), g.Latency(i, j)
			switch {
			case i == c:
				wantG, wantL = wantG*2, wantL*3
			case j == c:
				wantG = wantG * 0.5
			}
			if got := ng.Gap(i, j, m); got != wantG {
				t.Errorf("gap %d->%d: %g, want %g", i, j, got, wantG)
			}
			if got := ng.Latency(i, j); got != wantL {
				t.Errorf("lat %d->%d: %g, want %g", i, j, got, wantL)
			}
		}
	}
	// The original grid is untouched.
	if g.Gap(c, 0, m) == ng.Gap(c, 0, m) {
		t.Error("ApplyDelta mutated the source grid (or scaled by 1)")
	}
}

func TestApplyDeltaBcastTime(t *testing.T) {
	r := stats.NewRand(6)
	g := RandomGrid(r, 4)
	ng, err := g.ApplyDelta(Delta{Cluster: 1, BcastTime: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if ng.Clusters[1].BcastTime != 2.5 {
		t.Errorf("bcast time %g, want 2.5", ng.Clusters[1].BcastTime)
	}
	if g.Clusters[1].BcastTime == 2.5 {
		t.Error("source grid mutated")
	}
}

func TestDeltaValidate(t *testing.T) {
	cases := []struct {
		d  Delta
		ok bool
	}{
		{Delta{Cluster: 0}, true},
		{Delta{Cluster: -1}, false},
		{Delta{Cluster: 4}, false},
		{Delta{Cluster: 0, OutGapScale: -1}, false},
		{Delta{Cluster: 0, BcastTime: -2}, false},
		{Delta{Cluster: 3, InLatScale: 0.25}, true},
	}
	for i, tc := range cases {
		if err := tc.d.Validate(4); (err == nil) != tc.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, tc.ok)
		}
	}
	if !(Delta{Cluster: 0}).Identity() || !(Delta{Cluster: 0, OutGapScale: 1}).Identity() {
		t.Error("identity delta not recognised")
	}
	if (Delta{Cluster: 0, InGapScale: 2}).Identity() {
		t.Error("scaling delta reported as identity")
	}
}

// TestPatchCostsBitwiseIdentical is the contract PatchCosts exists for: the
// patched cache must be indistinguishable from costing the drifted grid from
// scratch, float for float — for entries of G alone and for fully derived
// two-matrix entries (G and WT), whose patched WT is compared against a
// fresh derivation.
func TestPatchCostsBitwiseIdentical(t *testing.T) {
	r := stats.NewRand(7)
	for trial := 0; trial < 5; trial++ {
		g := RandomSizedGrid(r, 5+r.Intn(8))
		sizes := []int64{1 << 10, 1 << 20, 3 << 20}
		for k, m := range sizes {
			if ec := g.EdgeCosts(m); k > 0 {
				ec.WT()
			}
		}
		c := r.Intn(g.N())
		d := Delta{Cluster: c, OutGapScale: 1.7, OutLatScale: 0.6, InGapScale: 1.1, InLatScale: 2.0}
		srcL := g.EdgeCosts(sizes[0]).L
		before := make([][]float64, len(srcL))
		for i := range srcL {
			before[i] = append([]float64(nil), srcL[i]...)
		}

		patched, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		PatchCosts(g, patched, c)
		for i := range srcL {
			for j := range srcL[i] {
				if math.Float64bits(srcL[i][j]) != math.Float64bits(before[i][j]) {
					t.Fatalf("PatchCosts wrote the source grid's shared L at (%d,%d)", i, j)
				}
			}
		}
		if &patched.EdgeCosts(sizes[0]).L[0] != &patched.EdgeCosts(sizes[2]).L[0] {
			t.Error("patched sizes carry separate latency matrices")
		}
		if &patched.EdgeCosts(sizes[0]).L[0] == &srcL[0] {
			t.Error("patched grid aliases the source grid's latency matrix")
		}

		fresh, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		for k, m := range sizes {
			pc, fc := patched.EdgeCosts(m), fresh.EdgeCosts(m)
			if (pc.wt != nil) != (k > 0) || pc.bytes != int64(1+min(k, 1))*matrixBytes(g.N()) {
				t.Fatalf("m=%d: patched entry holds WT=%v in %d bytes, source derived WT=%v", m, pc.wt != nil, pc.bytes, k > 0)
			}
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					if math.Float64bits(pc.G[i][j]) != math.Float64bits(fc.G[i][j]) ||
						math.Float64bits(pc.L[i][j]) != math.Float64bits(fc.L[i][j]) ||
						math.Float64bits(pc.WT()[i][j]) != math.Float64bits(fc.WT()[i][j]) {
						t.Fatalf("m=%d entry (%d,%d): patched (%g,%g,%g) != fresh (%g,%g,%g)",
							m, i, j, pc.G[i][j], pc.L[i][j], pc.WT()[i][j],
							fc.G[i][j], fc.L[i][j], fc.WT()[i][j])
					}
				}
			}
		}
	}
}
