package sched

import "math"

// ---------------------------------------------------------------------------
// Flat Tree (baseline used by ECO and MagPIe, §4.1)

// FlatTree has the root send to every other cluster sequentially, in cluster
// index order starting after the root. It ignores link performance entirely,
// which is why the paper uses it as the lower baseline.
type FlatTree struct{}

// Name implements Heuristic.
func (FlatTree) Name() string { return "FlatTree" }

func (FlatTree) pick(p *Problem, s *state) (int, int) {
	for d := 1; d < p.N; d++ {
		j := (p.Root + d) % p.N
		if !s.inA[j] {
			return p.Root, j
		}
	}
	return -1, -1
}

// Schedule implements Heuristic.
func (h FlatTree) Schedule(p *Problem) *Schedule { return poolSchedule(h, p) }

// ---------------------------------------------------------------------------
// Fastest Edge First (Bhat, §4.2)

// FEFWeight selects the edge weight used by FEF.
type FEFWeight int

const (
	// WeightLatency uses L only — the default, since the paper (after
	// Bhat) says the edge weight "usually corresponds to the
	// communication latency". Under Table 2's parameters (g two orders
	// of magnitude above L) this makes FEF nearly blind, which is
	// exactly the poor behaviour Figures 1–2 show.
	WeightLatency FEFWeight = iota
	// WeightFull uses g(m)+L, the full transmission time; kept for the
	// ablation bench.
	WeightFull
)

// FEF picks, among all edges from A to B, the one with the smallest weight.
// It greedily maximises the number of senders but ignores when a sender is
// actually able to transmit.
type FEF struct {
	Weight FEFWeight
}

// Name implements Heuristic.
func (h FEF) Name() string {
	if h.Weight == WeightFull {
		return "FEF-gap+lat"
	}
	return "FEF"
}

func (h FEF) pick(p *Problem, s *state) (int, int) {
	best := math.Inf(1)
	bi, bj := -1, -1
	for i := 0; i < p.N; i++ {
		if !s.inA[i] {
			continue
		}
		for j := 0; j < p.N; j++ {
			if s.inA[j] {
				continue
			}
			w := p.L[i][j]
			if h.Weight == WeightFull {
				w = p.W[i][j]
			}
			if w < best {
				best, bi, bj = w, i, j
			}
		}
	}
	return bi, bj
}

// Schedule implements Heuristic.
func (h FEF) Schedule(p *Problem) *Schedule { return poolSchedule(h, p) }

// ---------------------------------------------------------------------------
// Early Completion Edge First (Bhat, §4.3) and its lookahead family

// laKind selects the lookahead term F_j of the ECEF variants.
type laKind int

const (
	// laNone is plain ECEF (no lookahead).
	laNone laKind = iota
	// laMinW is ECEF-LA: F_j = min_k W[j][k] over k still in B.
	laMinW
	// laMinWT is ECEF-LAt: F_j = min_k (W[j][k] + T_k).
	laMinWT
	// laMaxWT is ECEF-LAT: F_j = max_k (W[j][k] + T_k).
	laMaxWT
)

// ecef is the shared picker for ECEF and every lookahead variant: it
// minimises RT_i + g_{i,j}(m) + L_{i,j} (+ F_j), where RT_i here is the
// sender's earliest availability, accounting for its previous transmissions
// (the paper's Ready Time).
type ecef struct {
	name string
	kind laKind
}

func (h ecef) Name() string { return h.name }

// lookahead computes F_j over the clusters still in B; it returns 0 when B
// holds no cluster beyond j itself.
func (h ecef) lookahead(p *Problem, s *state, j int) float64 {
	switch h.kind {
	case laMinW:
		best, found := 0.0, false
		for k := 0; k < p.N; k++ {
			if s.inA[k] || k == j {
				continue
			}
			if w := p.W[j][k]; !found || w < best {
				best, found = w, true
			}
		}
		return best
	case laMinWT:
		best, found := 0.0, false
		for k := 0; k < p.N; k++ {
			if s.inA[k] || k == j {
				continue
			}
			if w := p.W[j][k] + p.T[k]; !found || w < best {
				best, found = w, true
			}
		}
		return best
	case laMaxWT:
		best := 0.0
		for k := 0; k < p.N; k++ {
			if s.inA[k] || k == j {
				continue
			}
			if w := p.W[j][k] + p.T[k]; w > best {
				best = w
			}
		}
		return best
	}
	return 0
}

func (h ecef) pick(p *Problem, s *state) (int, int) {
	best := math.Inf(1)
	bi, bj := -1, -1
	for j := 0; j < p.N; j++ {
		if s.inA[j] {
			continue
		}
		fj := h.lookahead(p, s, j)
		for i := 0; i < p.N; i++ {
			if !s.inA[i] {
				continue
			}
			c := s.avail[i] + p.W[i][j] + fj
			if c < best {
				best, bi, bj = c, i, j
			}
		}
	}
	return bi, bj
}

func (h ecef) Schedule(p *Problem) *Schedule { return poolSchedule(h, p) }

// ECEF returns Bhat's Early Completion Edge First heuristic.
func ECEF() Heuristic { return ecef{name: "ECEF"} }

// ECEFLA returns Bhat's ECEF with lookahead: F_j is the minimal transmission
// time from j to any other cluster still in B, i.e. the utility of j as a
// future sender.
func ECEFLA() Heuristic { return ecef{name: "ECEF-LA", kind: laMinW} }

// ECEFLAt returns the paper's first grid-aware heuristic (§5.1): the
// lookahead adds the receiver-side broadcast time, F_j = min_k (g_{j,k} +
// L_{j,k} + T_k), so the chosen receiver can reach clusters that will also
// finish their local broadcast quickly.
func ECEFLAt() Heuristic { return ecef{name: "ECEF-LAt", kind: laMinWT} }

// ECEFLAT returns the paper's second grid-aware heuristic (§5.2): same
// shape but F_j = max_k (g_{j,k} + L_{j,k} + T_k), prioritising clusters
// that reach the slowest remaining broadcasts so those start early and
// overlap wide-area traffic.
func ECEFLAT() Heuristic { return ecef{name: "ECEF-LAT", kind: laMaxWT} }

// ---------------------------------------------------------------------------
// BottomUp (paper §5.3)

// BottomUp is the paper's max–min heuristic: each round it targets the
// receiver in B whose *cheapest* reachable completion (over senders in A,
// including the receiver's local broadcast T_j) is the *largest*, i.e. it
// contacts the slowest clusters as early as possible while still picking
// the best sender for them.
type BottomUp struct{}

// Name implements Heuristic.
func (BottomUp) Name() string { return "BottomUp" }

func (BottomUp) pick(p *Problem, s *state) (int, int) {
	worst := math.Inf(-1)
	bi, bj := -1, -1
	for j := 0; j < p.N; j++ {
		if s.inA[j] {
			continue
		}
		// Cheapest way to serve j. T[j] is invariant over senders; hoisting
		// the load keeps the summation association (avail + W) + T intact,
		// so the scan stays bit-identical to the incremental engine.
		tj := p.T[j]
		best := math.Inf(1)
		argi := -1
		for i := 0; i < p.N; i++ {
			if !s.inA[i] {
				continue
			}
			if c := s.avail[i] + p.W[i][j] + tj; c < best {
				best, argi = c, i
			}
		}
		if best > worst {
			worst, bi, bj = best, argi, j
		}
	}
	return bi, bj
}

// Schedule implements Heuristic.
func (h BottomUp) Schedule(p *Problem) *Schedule { return poolSchedule(h, p) }

// ---------------------------------------------------------------------------
// Mixed strategy (paper §6, closing recommendation)

// Mixed implements the paper's suggested adaptive strategy: use a
// performance-oriented heuristic (ECEF-LA) when the grid has few clusters
// and switch to ECEF-LAT when the number of clusters grows, where ECEF-LAT's
// hit rate stays constant.
type Mixed struct {
	// Threshold is the largest cluster count still served by ECEF-LA.
	// Zero means the default of 10 (the small-grid regime of Figure 1).
	Threshold int
}

// Name implements Heuristic.
func (Mixed) Name() string { return "Mixed" }

func (h Mixed) threshold() int {
	if h.Threshold > 0 {
		return h.Threshold
	}
	return 10
}

// inner returns the heuristic Mixed delegates to for this problem size.
func (h Mixed) inner(p *Problem) Heuristic {
	if p.N <= h.threshold() {
		return ECEFLA()
	}
	return ECEFLAT()
}

// Schedule implements Heuristic.
func (h Mixed) Schedule(p *Problem) *Schedule {
	sc := h.inner(p).Schedule(p)
	sc.Heuristic = h.Name()
	return sc
}

// ---------------------------------------------------------------------------
// Registry

// Paper returns the heuristics compared in the paper's simulations
// (Figures 1–4), in the paper's legend order.
func Paper() []Heuristic {
	return []Heuristic{
		FlatTree{},
		FEF{},
		ECEF(),
		ECEFLA(),
		ECEFLAt(),
		ECEFLAT(),
		BottomUp{},
	}
}

// ECEFFamily returns the four ECEF-like heuristics of Figures 3 and 4.
func ECEFFamily() []Heuristic {
	return []Heuristic{ECEF(), ECEFLA(), ECEFLAt(), ECEFLAT()}
}

// ByName returns the heuristic with the given display name.
func ByName(name string) (Heuristic, bool) {
	all := append(Paper(), Mixed{}, FEF{Weight: WeightFull})
	for _, h := range all {
		if h.Name() == name {
			return h, true
		}
	}
	return nil, false
}

// BestOf schedules p with every heuristic and returns the best schedule and
// the per-heuristic makespans. This is the paper's "global minimum"
// reference used by the hit-rate analysis (Figure 4).
func BestOf(hs []Heuristic, p *Problem) (best *Schedule, makespans []float64) {
	makespans = make([]float64, len(hs))
	for i, h := range hs {
		sc := h.Schedule(p)
		makespans[i] = sc.Makespan
		if best == nil || sc.Makespan < best.Makespan {
			best = sc
		}
	}
	return best, makespans
}
