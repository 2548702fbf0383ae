// Package sched implements the paper's contribution: inter-cluster
// broadcast scheduling heuristics for hierarchical grids.
//
// The model follows Bhat's formalism (§3 of the paper). Clusters are split
// into a set A (coordinator already holds the message) and a set B (does
// not). Each communication round picks a sender in A and a receiver in B;
// the receiver then joins A. A transmission from i to j starting at time s
// occupies i until s + g_{i,j}(m) and delivers the message to j at
// s + g_{i,j}(m) + L_{i,j}. Once a coordinator stops participating in
// inter-cluster communication it performs its local broadcast, which takes
// T_i; the makespan is the time the last cluster finishes its local
// broadcast.
//
// Heuristics differ only in how the (sender, receiver) pair is chosen each
// round; the engine in this package is shared.
package sched

import (
	"fmt"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/topology"
)

// Problem is a fully costed scheduling instance: the pLogP matrices
// evaluated at the message size, plus per-cluster local broadcast times.
// Precomputing these makes the heuristics (which scan O(N²) pairs per
// round) independent of the piecewise-linear gap evaluation cost.
type Problem struct {
	// N is the number of clusters; Root the index of the source cluster.
	N    int
	Root int
	// Overlap mirrors Options.Overlap (see there).
	Overlap bool
	// MsgSize is the broadcast payload in bytes.
	MsgSize int64
	// G[i][j] = g_{i,j}(m), L[i][j] = latency. The paper's
	// W_{i,j}(m) = g_{i,j}(m) + L_{i,j} is not stored: every reader forms
	// G[i][j] + L[i][j] (w), the sum the cost store's WT holds.
	//
	// The matrices are READ-ONLY: they alias the grid's per-message-size
	// cost store (topology.EdgeCosts) and are shared by every Problem built
	// from the same grid at the same size. Perturbation studies must
	// perturb the grid (before its first costing) and build a fresh
	// Problem, not write to these slices.
	G, L [][]float64
	// T[i] is the intra-cluster broadcast time of cluster i.
	T []float64

	// costs is the cost-store entry G and L came from (nil for Problems
	// built outside NewProblem). It serves W transposed to one-segment
	// builds (SegmentedProblem.lastWT), derived the first time an engine
	// asks for it, so FlatTree and FEF builds never pay for it.
	costs *topology.EdgeCosts
}

// w returns W[i][j] = G[i][j] + L[i][j], formed as one rounded sum before
// any other term is added, so every reader sees the float WT holds.
func (p *Problem) w(i, j int) float64 { return p.G[i][j] + p.L[i][j] }

// Options tune problem construction.
type Options struct {
	// IntraShape is the tree used to predict T_i when the cluster does
	// not carry an explicit BcastTime. Defaults to Binomial (MagPIe's
	// intra-cluster strategy, and the paper's).
	IntraShape intracluster.Shape
	// Overlap selects the completion model. When false (§3 formalism,
	// and what the modified MagPIe of §7 physically does), a cluster
	// starts its local broadcast only after its coordinator's last
	// wide-area send: completion_i = idle_i + T_i. When true, the local
	// broadcast overlaps later wide-area transmissions (the overlap §5.2
	// "counts on": completion_i = RT_i + T_i). The §6 Monte-Carlo figures
	// use Overlap=true; see EXPERIMENTS.md for the evidence.
	Overlap bool
	// SegmentedLocal extends segmentation below the coordinators
	// (segmented problems only; NewProblem ignores it): the intra-cluster
	// trees forward segment by segment under the per-segment timing model
	// T_i(s, K) (intracluster.SegmentedCompletion), with the completion
	// model applied per segment — under Overlap a cluster's local tree
	// consumes segment q from its wide-area arrival RT_i(q); without it,
	// from max(busy_i, RT_i(q)), so leaf coordinators still stream (their
	// NIC is idle) while senders start after their last wide-area send.
	// Each cluster adopts the segmented local phase only when the model
	// says it wins (min with the whole-message T_i), so schedules are
	// never worse than the coordinator-only pipeline; with K == 1 the
	// option is inert and schedules are byte-identical to it.
	SegmentedLocal bool
}

// NewProblem costs a grid for a broadcast of m bytes rooted at cluster
// root. Clusters with an explicit BcastTime use it verbatim (the paper's §6
// Monte-Carlo setting); otherwise T_i is predicted from the cluster's
// intra-cluster pLogP parameters and node count.
func NewProblem(g *topology.Grid, root int, m int64, opt Options) (*Problem, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("sched: root %d out of range [0,%d)", root, n)
	}
	if m < 0 {
		return nil, fmt.Errorf("sched: negative message size %d", m)
	}
	// The evaluated pLogP matrices are cached per message size on the grid
	// and shared between problems (read-only by convention), so repeated
	// constructions over one platform skip the piecewise-linear lookups.
	ec := g.EdgeCosts(m)
	p := &Problem{
		N:       n,
		Root:    root,
		Overlap: opt.Overlap,
		MsgSize: m,
		G:       ec.G,
		L:       ec.L,
		T:       make([]float64, n),
		costs:   ec,
	}
	for i := 0; i < n; i++ {
		c := g.Clusters[i]
		if c.BcastTime > 0 {
			p.T[i] = c.BcastTime
		} else {
			p.T[i] = intracluster.Predict(opt.IntraShape, c.Nodes, c.Intra, m)
		}
	}
	return p, nil
}

// MustProblem is NewProblem that panics on error (tests, examples).
func MustProblem(g *topology.Grid, root int, m int64, opt Options) *Problem {
	p, err := NewProblem(g, root, m, opt)
	if err != nil {
		panic(err)
	}
	return p
}
