package topology

import "sync"

// CostBudget is the byte budget of one grid's cost store: the per-size
// matrices it keeps resident (see costStore). At the 4,096-cluster cap one
// fully derived size (G and WT) is about 268 MB, so the store then holds
// just the size in use; a 128-cluster platform fits about 1,000 of them.
const CostBudget = 256 << 20

// EdgeCosts is one message size's entry in a grid's cost store: the
// wide-area pLogP matrices evaluated at that size. G[i][j] = g_{i,j}(m) and
// L[i][j] = latency are present from the start (L is the same matrix in
// every entry of one grid); WT, the transpose of W = G + L, is derived on
// first request. W itself is never stored: a reader of W[i][j] forms
// G[i][j] + L[i][j], the sum WT[j][i] holds, bit for bit. Every matrix is
// shared by all callers — treat them as read-only — and lives on one flat
// backing array of stride n.
type EdgeCosts struct {
	G, L [][]float64

	m     int64
	store *costStore
	// wt is derived under store.mu. bytes counts the entry's matrices;
	// prev and next link it into the store's recency list while it is
	// resident (both nil once evicted).
	wt         [][]float64
	bytes      int64
	prev, next *EdgeCosts
}

// costStore is a grid's cache of cost entries, one per message size, bounded
// by a byte budget with least-recently-used eviction. Eviction only drops
// the store's reference: problems, plans and engine caches that alias an
// entry's matrices keep them, and a size costed again is rebuilt with the
// same expressions, so its floats are bit-identical. The entry just built
// or touched is never evicted, so resident bytes stay within the budget
// plus one entry.
type costStore struct {
	mu sync.Mutex
	// lat is the latency matrix every entry aliases (latency does not
	// depend on message size); nil until the grid is first costed.
	lat     [][]float64
	entries map[int64]*EdgeCosts
	// lru is the recency list's sentinel: lru.next is the most recently
	// used entry, lru.prev the least.
	lru            EdgeCosts
	bytes, evicted int64
	// budget replaces CostBudget when positive (tests).
	budget int64
}

// CostStats describes a grid's cost store: the bytes of the per-size
// matrices it holds (the latency matrix all sizes share is not counted),
// the number of sizes resident and the number evicted so far.
type CostStats struct {
	Bytes   int64
	Sizes   int
	Evicted int64
}

// EdgeCosts returns the cost entry for a broadcast payload of m bytes,
// evaluating G on the first request for m (or the first since m was
// evicted). Repeated schedule constructions over one platform — root
// rotations, Monte-Carlo replications at the paper's fixed 1 MB size,
// figure sweeps — skip the piecewise-linear pLogP evaluations after it.
func (g *Grid) EdgeCosts(m int64) *EdgeCosts {
	s := &g.costs
	s.mu.Lock()
	defer s.mu.Unlock()
	if ec := s.entries[m]; ec != nil {
		s.touch(ec)
		return ec
	}
	n := g.N()
	if s.lat == nil {
		s.lat = buildMatrix(n, nil, -1, g.Latency)
	}
	ec := &EdgeCosts{
		G:     buildMatrix(n, nil, -1, func(i, j int) float64 { return g.Gap(i, j, m) }),
		L:     s.lat,
		m:     m,
		store: s,
	}
	s.insert(ec)
	return ec
}

// CostStats reports the grid's cost store.
func (g *Grid) CostStats() CostStats {
	s := &g.costs
	s.mu.Lock()
	defer s.mu.Unlock()
	return CostStats{Bytes: s.bytes, Sizes: len(s.entries), Evicted: s.evicted}
}

// WT returns W = G + L transposed (WT[j][i] = G[i][j] + L[i][j], for
// receiver-major scans), deriving it from G and L on the first call.
func (ec *EdgeCosts) WT() [][]float64 {
	s := ec.store
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch(ec)
	if ec.wt == nil {
		ec.wt = TransposeSum(ec.G, ec.L)
		s.grow(ec)
	}
	return ec.wt
}

// TransposeSum returns the n×n matrix t[j][i] = a[i][j] + b[i][j] (a[i][j]
// alone when b is nil) on one backing array of stride n, walking 32×32
// tiles so that the rows it reads and the columns it writes both stay in
// cache. Each cell is the one rounded sum a reader of a[i][j] + b[i][j]
// forms. On cost matrices, whose diagonals are zero, so is t's.
func TransposeSum(a, b [][]float64) [][]float64 {
	const tile = 32
	n := len(a)
	t := newMatrix(n)
	for i0 := 0; i0 < n; i0 += tile {
		for j0 := 0; j0 < n; j0 += tile {
			j1 := min(j0+tile, n)
			for i := i0; i < min(i0+tile, n); i++ {
				row := a[i][j0:j1]
				if b == nil {
					for k, v := range row {
						t[j0+k][i] = v
					}
					continue
				}
				brow := b[i][j0:j1]
				for k, v := range row {
					t[j0+k][i] = v + brow[k]
				}
			}
		}
	}
	return t
}

// newMatrix returns a zeroed n×n matrix on a single backing array, exposed
// as row views.
func newMatrix(n int) [][]float64 {
	flat := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// buildMatrix is the cell-wise constructor of cost matrices: an n×n matrix
// holding cell(i, j) off the diagonal and 0 on it. With from non-nil only
// row and column c are evaluated and every other cell is copied from from,
// which must already hold what cell would return there (PatchCosts'
// contract).
func buildMatrix(n int, from [][]float64, c int, cell func(i, j int) float64) [][]float64 {
	rows := newMatrix(n)
	if from == nil {
		for i, row := range rows {
			for j := range row {
				if i != j {
					row[j] = cell(i, j)
				}
			}
		}
		return rows
	}
	for i, row := range rows {
		copy(row, from[i])
	}
	for j := 0; j < n; j++ {
		if j != c {
			rows[c][j] = cell(c, j)
			rows[j][c] = cell(j, c)
		}
	}
	return rows
}

// matrixBytes is the memory of one n×n cost matrix: its backing array plus
// its row headers.
func matrixBytes(n int) int64 { return int64(n)*int64(n)*8 + int64(n)*24 }

// size returns the bytes of ec's own matrices (G, and WT once derived).
func (ec *EdgeCosts) size() int64 {
	if ec.wt != nil {
		return 2 * matrixBytes(len(ec.G))
	}
	return matrixBytes(len(ec.G))
}

// insert makes ec resident as the most recently used entry and evicts what
// the budget no longer holds.
func (s *costStore) insert(ec *EdgeCosts) {
	if s.entries == nil {
		s.entries = map[int64]*EdgeCosts{}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	s.entries[ec.m] = ec
	ec.prev, ec.next = &s.lru, s.lru.next
	ec.next.prev, s.lru.next = ec, ec
	ec.bytes = ec.size()
	s.bytes += ec.bytes
	s.evictFor(ec)
}

// grow re-counts a resident entry after a derivation; the caller has
// touched it, so it is the most recently used.
func (s *costStore) grow(ec *EdgeCosts) {
	if ec.next == nil {
		return // evicted: its holders own it now
	}
	b := ec.size()
	s.bytes += b - ec.bytes
	ec.bytes = b
	s.evictFor(ec)
}

// touch moves a resident entry to the front of the recency list.
func (s *costStore) touch(ec *EdgeCosts) {
	if ec.next == nil || s.lru.next == ec {
		return
	}
	ec.prev.next, ec.next.prev = ec.next, ec.prev
	ec.prev, ec.next = &s.lru, s.lru.next
	ec.next.prev, s.lru.next = ec, ec
}

// evictFor drops least recently used entries other than keep until the
// resident bytes fit the budget.
func (s *costStore) evictFor(keep *EdgeCosts) {
	budget := s.budget
	if budget <= 0 {
		budget = CostBudget
	}
	for s.bytes > budget {
		old := s.lru.prev
		if old == keep || old == &s.lru {
			return
		}
		old.prev.next, old.next.prev = old.next, old.prev
		old.prev, old.next = nil, nil
		delete(s.entries, old.m)
		s.bytes -= old.bytes
		s.evicted++
	}
}
