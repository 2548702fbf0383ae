package sched

import (
	"fmt"
	"math"
)

// MaxOptimalClusters bounds the exhaustive search. The raw schedule space
// grows as the product of |A|·|B| over rounds (≈ 38M leaves at N=8 before
// pruning), which is why the paper falls back to the cheaper "global
// minimum over heuristics" reference for its Figure 4. The branch-and-bound
// below adds a relay-aware lower bound, commutation canonicalisation, and a
// depth-gated transposition table over (A-set bitmask, avail vector) with
// dominance pruning, which together collapse the orderings of a round
// prefix that reach equivalent frontiers; that lifts the practical limit
// from 9 clusters (plain bound pruning) to 12 at equal or better wall time.
const MaxOptimalClusters = 12

// ttMaxPerMask caps the dominance frontier kept per A-set, bounding table
// memory; dropping an entry only costs pruning opportunities, never
// correctness.
const ttMaxPerMask = 256

// ttMinRemaining gates the transposition table to nodes with at least this
// many clusters still in B. Deep nodes guard tiny subtrees that the bound
// prunes for less than a probe costs; shallow hits cut large subtrees
// (measured ~40% total wall time across random 11–12 cluster instances
// against running untabled, with diminishing returns either side of 5).
// It is a variable only so the exhaustive cross-check test can lower it:
// at the default gate, masks cannot collide until n=8, which brute force
// cannot enumerate in test time.
var ttMinRemaining = 5

// Optimal finds a makespan-optimal schedule by branch-and-bound over every
// (sender, receiver) sequence. It is exponential and refuses instances with
// more than MaxOptimalClusters clusters; it exists to measure how far the
// heuristics sit from the true optimum on small grids (an ablation the
// paper sidesteps).
type Optimal struct{}

// Name implements Heuristic.
func (Optimal) Name() string { return "Optimal" }

// Schedule implements Heuristic.
func (Optimal) Schedule(p *Problem) *Schedule {
	if p.N > MaxOptimalClusters {
		panic(fmt.Sprintf("sched: Optimal limited to %d clusters, got %d", MaxOptimalClusters, p.N))
	}
	// Seed the bound with the best heuristic schedule, tightened by local
	// search: a lower initial bound makes the pruning bite immediately.
	best, _ := BestOf(Paper(), p)
	if refined := Refine(p, best, 0); refined.Makespan < best.Makespan {
		best = refined
	}
	bestPairs := pairsOf(best)
	bound := best.Makespan

	n := p.N
	inA := make([]bool, n)
	avail := make([]float64, n)
	inA[p.Root] = true
	pairs := make([][2]int, 0, n-1)

	// dist[i][j] is the cheapest accumulated transmission time from i to j
	// over any relay path (Floyd–Warshall over W). A cluster in B cannot
	// hold the message before some current holder's availability plus this
	// distance: relays forward no earlier than their own arrival, so every
	// hop costs at least its W edge.
	dist := make([][]float64, n)
	for i := 0; i < n; i++ {
		dist[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				dist[i][j] = p.w(i, j)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			dik := dist[i][k]
			for j := 0; j < n; j++ {
				if d := dik + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}

	// seen[mask] is the dominance frontier of explored states sharing the
	// A-set mask: avail vectors (plus, under the overlap completion
	// model, the fixed completion maximum as a final component). A new
	// state whose vector is componentwise >= a stored one cannot lead to
	// a better leaf — every completion it can reach, the stored state
	// reached no later (DFS finishes a state's subtree before any equal-
	// depth state is visited, and the bound only tightens over time).
	// Vectors are compared as raw float64s: exact comparison both
	// certifies real-valued dominance and collapses the bit-identical
	// frontiers that different pair orderings produce, whereas a
	// quantization sound in both directions (store-up/probe-down) could
	// only ever certify values sitting exactly on the grid.
	//
	// Combining this with the commutation pruning below stays exact: a
	// continuation skipped at the stored state defers its value to the
	// commutation-swapped ordering through a different prefix, and every
	// deferral chain terminates — dominance citations go strictly back in
	// DFS completion order, and each commutation swap strictly reduces
	// the receiver sequence's inversion count — at a branch the search
	// actually explored with an equal-or-smaller completion. The
	// brute-force cross-check in the tests exercises exactly this
	// machinery.
	seen := make(map[uint32][][]float64)
	cur := make([]float64, n+1)

	// Under Overlap (completion_i = RT_i + T_i), a cluster's completion
	// is fixed the moment it receives the message; fixedMax carries the
	// running maximum down the search path. Under the strict model the
	// completion avail_i + T_i keeps moving with every later send, so it
	// is evaluated from avail at the leaves instead.
	fixedRoot := 0.0
	if p.Overlap {
		fixedRoot = p.T[p.Root]
	}

	var dfs func(sizeA int, mask uint32, prevI, prevJ int, fixedMax float64)
	dfs = func(sizeA int, mask uint32, prevI, prevJ int, fixedMax float64) {
		if sizeA == n {
			worst := fixedMax
			if !p.Overlap {
				for i := 0; i < n; i++ {
					if c := avail[i] + p.T[i]; c > worst {
						worst = c
					}
				}
			}
			if worst < bound {
				bound = worst
				bestPairs = append(bestPairs[:0], pairs...)
			}
			return
		}
		// Lower bound: clusters in A can only finish later than their
		// current availability (strict model) or their already-fixed
		// completion (overlap model); clusters in B cannot hold the
		// message before the cheapest (holder availability + relay path)
		// reaching them.
		lb := fixedMax
		if !p.Overlap {
			for i := 0; i < n; i++ {
				if inA[i] {
					if c := avail[i] + p.T[i]; c > lb {
						lb = c
					}
				}
			}
		}
		for j := 0; j < n; j++ {
			if inA[j] {
				continue
			}
			reach := math.Inf(1)
			for i := 0; i < n; i++ {
				if inA[i] {
					if c := avail[i] + dist[i][j]; c < reach {
						reach = c
					}
				}
			}
			if c := reach + p.T[j]; c > lb {
				lb = c
			}
		}
		if lb >= bound {
			return
		}
		// Transposition / dominance pruning. The state vector is built in
		// a reused scratch buffer; a copy is allocated only for states
		// that survive the probe and get stored.
		if n-sizeA >= ttMinRemaining {
			copy(cur, avail)
			cur[n] = fixedMax
			list := seen[mask]
			for _, st := range list {
				if dominates(st, cur) {
					return
				}
			}
			ins := append([]float64(nil), cur...)
			kept := list[:0]
			for _, st := range list {
				if !dominates(ins, st) {
					kept = append(kept, st)
				}
			}
			if len(kept) < ttMaxPerMask {
				kept = append(kept, ins)
			}
			seen[mask] = kept
		}

		for i := 0; i < n; i++ {
			if !inA[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if inA[j] {
					continue
				}
				// Commutation pruning: consecutive rounds (i1,j1),(i2,j2)
				// with distinct senders and i2 independent of j1 produce
				// identical transmissions in either order (timing depends
				// only on each sender's own send sequence), so only the
				// canonical ascending-receiver interleaving needs
				// exploring.
				if j < prevJ && i != prevJ && i != prevI {
					continue
				}
				arrive := avail[i] + p.w(i, j)
				if arrive+p.T[j] >= bound {
					// The receiver alone would already finish too late.
					continue
				}
				nextFixed := fixedMax
				if p.Overlap {
					if c := arrive + p.T[j]; c > nextFixed {
						nextFixed = c
					}
				}
				savedAvail := avail[i]
				avail[i] += p.G[i][j]
				avail[j] = arrive
				inA[j] = true
				pairs = append(pairs, [2]int{i, j})
				dfs(sizeA+1, mask|1<<uint(j), i, j, nextFixed)
				pairs = pairs[:len(pairs)-1]
				inA[j] = false
				avail[j] = 0
				avail[i] = savedAvail
			}
		}
	}
	dfs(1, 1<<uint(p.Root), -1, -1, fixedRoot)

	sc := Replay(p, bestPairs)
	sc.Heuristic = "Optimal"
	return sc
}

// dominates reports a[i] <= b[i] for every component.
func dominates(a, b []float64) bool {
	for i, v := range a {
		if v > b[i] {
			return false
		}
	}
	return true
}

func pairsOf(sc *Schedule) [][2]int {
	ps := make([][2]int, len(sc.Events))
	for i, e := range sc.Events {
		ps[i] = [2]int{e.From, e.To}
	}
	return ps
}

// Replay materialises a schedule from an explicit (sender, receiver)
// sequence, recomputing all timing through the shared engine. It panics if
// the sequence is not a valid broadcast order for the problem.
func Replay(p *Problem, pairs [][2]int) *Schedule {
	if len(pairs) != p.N-1 {
		panic(fmt.Sprintf("sched: replay needs %d pairs, got %d", p.N-1, len(pairs)))
	}
	pol := &scripted{pairs: pairs}
	return run(pol, p)
}

// scripted is a policy that replays a fixed pair sequence.
type scripted struct {
	pairs [][2]int
	next  int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) pick(_ *Problem, _ *state) (int, int) {
	pr := s.pairs[s.next]
	s.next++
	return pr[0], pr[1]
}
