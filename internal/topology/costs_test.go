package topology

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"gridbcast/internal/stats"
)

// sameBits reports whether two matrices hold bit-identical floats.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// clone deep-copies a matrix.
func clone(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// TestEdgeCostsDerivesOnRequest: an entry starts with G alone, WT is
// derived on first request (and counted then, so a fully derived entry is
// exactly G plus WT), and every matrix lies on one flat backing array of
// stride n.
func TestEdgeCostsDerivesOnRequest(t *testing.T) {
	g := RandomSizedGrid(stats.NewRand(2), 9)
	n := g.N()
	ec := g.EdgeCosts(1 << 20)
	if ec.wt != nil {
		t.Fatal("EdgeCosts derived WT before a caller asked")
	}
	if st := g.CostStats(); st.Bytes != matrixBytes(n) || st.Sizes != 1 {
		t.Errorf("G only: stats %+v, want %d bytes in 1 size", st, matrixBytes(n))
	}
	wt := ec.WT()
	if st := g.CostStats(); st.Bytes != 2*matrixBytes(n) {
		t.Errorf("full entry: %d bytes, want G + WT = %d", st.Bytes, 2*matrixBytes(n))
	}
	for _, m := range [][][]float64{ec.G, ec.L, wt} {
		for i := 1; i < n; i++ {
			step := uintptr(unsafe.Pointer(&m[i][0])) - uintptr(unsafe.Pointer(&m[i-1][0]))
			if step != uintptr(n)*8 || cap(m[i]) != n {
				t.Fatalf("row %d is not a stride-%d view of one backing array", i, n)
			}
		}
	}
	if &ec.WT()[0][0] != &wt[0][0] {
		t.Error("a second request re-derived WT")
	}
}

// TestWTIsTransposedSum: the tiled WT build holds WT[j][i] = G[i][j] +
// L[i][j] bit for bit, with a zero diagonal, on the paper's platform, a
// 128-cluster draw (four whole tiles) and a 37-cluster one (a partial
// tile on each edge); TransposeSum without a second matrix is the plain
// transpose.
func TestWTIsTransposedSum(t *testing.T) {
	for _, g := range []*Grid{Grid5000(), RandomGrid(stats.NewRand(7), 128), RandomSizedGrid(stats.NewRand(3), 37)} {
		n := g.N()
		for _, m := range []int64{1 << 10, 1 << 20, 16 << 20} {
			ec := g.EdgeCosts(m)
			wt, gt := ec.WT(), TransposeSum(ec.G, nil)
			for i := 0; i < n; i++ {
				if wt[i][i] != 0 || math.Signbit(wt[i][i]) {
					t.Fatalf("n=%d m=%d: WT[%d][%d] = %g, want +0", n, m, i, i, wt[i][i])
				}
				for j := 0; j < n; j++ {
					if math.Float64bits(wt[j][i]) != math.Float64bits(ec.G[i][j]+ec.L[i][j]) {
						t.Fatalf("n=%d m=%d: WT[%d][%d] = %g, want G+L = %g", n, m, j, i, wt[j][i], ec.G[i][j]+ec.L[i][j])
					}
					if math.Float64bits(gt[j][i]) != math.Float64bits(ec.G[i][j]) {
						t.Fatalf("n=%d m=%d: G transposed differs at (%d,%d)", n, m, j, i)
					}
				}
			}
		}
	}
}

// TestCostStoreBounded costs 1,000 distinct sizes on a 256-cluster grid
// under a 16 MiB budget, deriving WT for some: a fully derived entry counts
// exactly G plus WT, resident bytes never exceed the budget plus one full
// entry, and the live heap stays under the budget plus 64 MiB (an
// unbounded store would hold about 800 MB).
func TestCostStoreBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000 sizes on 256 clusters")
	}
	g := RandomSizedGrid(stats.NewRand(4), 256)
	const budget = 16 << 20
	g.costs.budget = budget
	full := 2 * matrixBytes(g.N())
	var older *EdgeCosts
	for k := 0; k < 1000; k++ {
		ec := g.EdgeCosts(int64(1<<20 + 512*k))
		if k%2 == 1 {
			ec.WT()
			if ec.bytes != full {
				t.Fatalf("size %d: a fully derived entry counts %d bytes, want G + WT = %d", k, ec.bytes, full)
			}
		}
		if k%10 == 0 {
			if older != nil {
				older.WT() // an entry built ten sizes ago grows
			}
			older = ec
		}
		if st := g.CostStats(); st.Bytes > budget+full {
			t.Fatalf("size %d: %d resident bytes, budget %d plus one entry %d", k, st.Bytes, budget, full)
		}
	}
	st := g.CostStats()
	if st.Evicted == 0 || st.Sizes+int(st.Evicted) != 1000 {
		t.Errorf("stats %+v: want 1000 sizes resident or evicted", st)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if limit := uint64(budget + 64<<20); ms.HeapAlloc > limit {
		t.Errorf("live heap %d bytes after GC, want under %d", ms.HeapAlloc, limit)
	}
	runtime.KeepAlive(g)
}

// TestCostStoreEvictionKeepsHoldersAndFloats: eviction only drops the
// store's reference — a holder's matrices stay intact and can still derive
// — and a size costed again is bit-identical to its first costing. The
// entry just built or touched is never evicted, even when it alone
// exceeds the budget.
func TestCostStoreEvictionKeepsHoldersAndFloats(t *testing.T) {
	g := RandomSizedGrid(stats.NewRand(8), 32)
	g.costs.budget = matrixBytes(g.N())
	const m = 3<<20 + 17
	first := g.EdgeCosts(m)
	firstG := clone(first.G)
	if st := g.CostStats(); st.Sizes != 1 || st.Evicted != 0 {
		t.Fatalf("a lone entry of G was disturbed: %+v", st)
	}
	firstWT := clone(first.WT()) // the entry alone now exceeds the budget and stays
	if st := g.CostStats(); st.Sizes != 1 || st.Bytes != 2*matrixBytes(g.N()) {
		t.Fatalf("the entry in use was evicted: %+v", st)
	}
	g.EdgeCosts(1 << 10)
	if st := g.CostStats(); st.Sizes != 1 || st.Evicted != 1 {
		t.Fatalf("costing another size kept %+v, want the old entry evicted", st)
	}
	again := g.EdgeCosts(m)
	if again == first {
		t.Fatal("an evicted size was served from the store")
	}
	if !sameBits(first.G, firstG) || !sameBits(first.WT(), firstWT) {
		t.Error("eviction disturbed a holder's matrices")
	}
	if !sameBits(again.G, firstG) || !sameBits(again.WT(), firstWT) {
		t.Error("re-costing an evicted size changed its floats")
	}
}

// TestPatchCostsPartialEntries: PatchCosts carries over only the parts src
// has derived, and every carried or later-derived matrix equals fresh
// costing of the drifted grid bit for bit.
func TestPatchCostsPartialEntries(t *testing.T) {
	r := stats.NewRand(12)
	for trial := 0; trial < 4; trial++ {
		g := RandomSizedGrid(r, 6+r.Intn(10))
		sizes := []int64{1 << 10, 1 << 16, 1 << 20, 5 << 20}
		g.EdgeCosts(sizes[1])
		g.EdgeCosts(sizes[2]).WT()
		g.EdgeCosts(sizes[3])
		g.EdgeCosts(sizes[0]) // most recently used
		c := r.Intn(g.N())
		d := Delta{Cluster: c, OutGapScale: 1.3, OutLatScale: 0.7, InGapScale: 0.9, InLatScale: 1.5}
		patched, _ := g.ApplyDelta(d)
		fresh, _ := g.ApplyDelta(d)
		PatchCosts(g, patched, c)
		if st, src := patched.CostStats(), g.CostStats(); st != src {
			t.Fatalf("patched store %+v, source %+v", st, src)
		}
		if patched.costs.lru.next.m != sizes[0] || patched.costs.lru.prev.m != sizes[1] {
			t.Error("patched store's recency order differs from the source's")
		}
		for k, m := range sizes {
			pc, fc := patched.EdgeCosts(m), fresh.EdgeCosts(m)
			if (pc.wt != nil) != (k == 2) {
				t.Errorf("m=%d: patched derived WT=%v, source had other parts", m, pc.wt != nil)
			}
			if !sameBits(pc.G, fc.G) || !sameBits(pc.L, fc.L) || !sameBits(pc.WT(), fc.WT()) {
				t.Fatalf("trial %d m=%d: patched costs differ from fresh costing", trial, m)
			}
		}
	}
}
