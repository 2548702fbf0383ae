// Package intracluster builds and costs intra-cluster broadcast trees.
//
// Once a cluster coordinator has finished its part of the inter-cluster
// schedule, it broadcasts the message locally. The paper (and MagPIe) use a
// binomial tree inside clusters; this package also provides the flat, chain
// and binary shapes so that the choice can be ablated, plus a pLogP
// completion-time predictor T_i(m) in the style of the authors' earlier
// work ("Fast tuning of intra-cluster collective communications",
// Euro PVM/MPI 2004).
package intracluster

import (
	"fmt"
	"math/bits"

	"gridbcast/internal/plogp"
)

// Shape selects a broadcast tree topology.
type Shape int

const (
	// Binomial is the classic recursive-halving broadcast tree; the
	// default inside MagPIe and the paper's intra-cluster strategy.
	Binomial Shape = iota
	// Flat has the root send to every node sequentially.
	Flat
	// Chain forwards the message along a line of nodes.
	Chain
	// Binary is a complete binary tree.
	Binary
)

// Shapes lists every supported shape, in display order.
var Shapes = []Shape{Binomial, Flat, Chain, Binary}

// String returns the shape's conventional name.
func (s Shape) String() string {
	switch s {
	case Binomial:
		return "binomial"
	case Flat:
		return "flat"
	case Chain:
		return "chain"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Tree is a rooted broadcast tree over nodes 0..P-1 with node 0 as root.
// Children are listed in send order: the root transmits to Children[0][0]
// first, then Children[0][1], and so on; order matters under the gap model
// because each transmission occupies the sender for g(m).
type Tree struct {
	P        int
	Children [][]int
	Parent   []int // Parent[0] == -1
}

// New builds the tree of the given shape over p nodes (p >= 1). The
// children lists share one backing array.
func New(shape Shape, p int) *Tree {
	if p < 1 {
		panic("intracluster: tree needs p >= 1")
	}
	t := &Tree{
		P:        p,
		Children: make([][]int, p),
		Parent:   make([]int, p),
	}
	t.Parent[0] = -1
	edges := make([]int, 0, p-1)
	for r := 0; r < p; r++ {
		from := len(edges)
		edges = shape.AppendChildren(edges, p, r)
		if len(edges) > from {
			t.Children[r] = edges[from:len(edges):len(edges)]
		}
		for _, c := range edges[from:] {
			t.Parent[c] = r
		}
	}
	return t
}

// AppendChildren appends node r's children in the p-node tree of shape s to
// dst, in send order, and returns the extended slice. Every shape is
// arithmetic in (p, r), so a caller that walks one node's children — a
// simulated process forwarding the message — needs no Tree; New builds
// Tree.Children from it.
//
// Binomial is the MPICH-style tree: node r's children are r | 2^k for each
// bit k below r's lowest set bit (the root has every bit available),
// highest first, so the largest subtree is served first, which is optimal
// under the gap model for homogeneous nodes.
func (s Shape) AppendChildren(dst []int, p, r int) []int {
	switch s {
	case Flat:
		if r == 0 {
			for i := 1; i < p; i++ {
				dst = append(dst, i)
			}
		}
	case Chain:
		if r+1 < p {
			dst = append(dst, r+1)
		}
	case Binary:
		for c := 2*r + 1; c <= 2*r+2 && c < p; c++ {
			dst = append(dst, c)
		}
	case Binomial:
		low := bits.Len(uint(p - 1)) // the root: every bit that reaches p
		if r != 0 {
			low = bits.TrailingZeros(uint(r))
		}
		for k := low - 1; k >= 0; k-- {
			if c := r | 1<<k; c < p {
				dst = append(dst, c)
			}
		}
	default:
		panic(fmt.Sprintf("intracluster: unknown shape %v", s))
	}
	return dst
}

// Validate checks the tree is a well-formed spanning tree rooted at 0.
func (t *Tree) Validate() error {
	if t.P < 1 {
		return fmt.Errorf("intracluster: empty tree")
	}
	if t.Parent[0] != -1 {
		return fmt.Errorf("intracluster: root has parent %d", t.Parent[0])
	}
	seen := make([]bool, t.P)
	seen[0] = true
	count := 1
	queue := []int{0}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range t.Children[n] {
			if c < 0 || c >= t.P {
				return fmt.Errorf("intracluster: child %d out of range", c)
			}
			if seen[c] {
				return fmt.Errorf("intracluster: node %d reached twice", c)
			}
			if t.Parent[c] != n {
				return fmt.Errorf("intracluster: parent pointer of %d inconsistent", c)
			}
			seen[c] = true
			count++
			queue = append(queue, c)
		}
	}
	if count != t.P {
		return fmt.Errorf("intracluster: tree reaches %d of %d nodes", count, t.P)
	}
	return nil
}

// ArrivalTimes returns, for each node, the virtual time at which it holds
// the full message when the root starts sending at time 0, under the pLogP
// gap model: a parent's i-th transmission starts once its previous ones are
// done (i·g(m) after it received the message) and lands g(m)+L later, plus
// the receive overhead when the parameter set defines one.
func (t *Tree) ArrivalTimes(p plogp.Params, m int64) []float64 {
	arrival := make([]float64, t.P)
	g := p.Gap(m)
	or := p.RecvOverhead(m)
	os := p.SendOverhead(m)
	var walk func(n int)
	walk = func(n int) {
		start := arrival[n] + os
		for _, c := range t.Children[n] {
			start += g
			arrival[c] = start + p.L + or
			walk(c)
		}
	}
	walk(0)
	return arrival
}

// Completion returns the broadcast completion time: the latest arrival.
func (t *Tree) Completion(p plogp.Params, m int64) float64 {
	var worst float64
	for _, a := range t.ArrivalTimes(p, m) {
		if a > worst {
			worst = a
		}
	}
	return worst
}

// Predict returns the predicted intra-cluster broadcast time T for a
// homogeneous cluster of p nodes using the given shape. A single-node
// cluster broadcasts in zero time. It walks the shape's children directly,
// so it builds no tree; the result is Completion's, bit for bit.
func Predict(shape Shape, p int, params plogp.Params, m int64) float64 {
	if p <= 1 {
		return 0
	}
	w := predictWalk{shape: shape, p: p, os: params.SendOverhead(m), g: params.Gap(m), l: params.L, or: params.RecvOverhead(m)}
	return w.latest(0, 0)
}

// predictWalk is ArrivalTimes' recursion over a shape instead of a Tree.
type predictWalk struct {
	shape        Shape
	p            int
	os, g, l, or float64
}

// latest returns the latest arrival in node n's subtree, n holding the
// message at time at.
func (w *predictWalk) latest(n int, at float64) float64 {
	// Binomial nodes have at most 63 children; only a flat root outgrows
	// the stack buffer.
	var buf [64]int
	worst := at
	start := at + w.os
	for _, c := range w.shape.AppendChildren(buf[:0], w.p, n) {
		start += w.g
		if a := w.latest(c, start+w.l+w.or); a > worst {
			worst = a
		}
	}
	return worst
}
