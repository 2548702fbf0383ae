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

// ParseShape converts a name produced by String back to a Shape.
func ParseShape(name string) (Shape, error) {
	for _, s := range Shapes {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("intracluster: unknown shape %q", name)
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

// New builds the tree of the given shape over p nodes (p >= 1).
func New(shape Shape, p int) *Tree {
	if p < 1 {
		panic("intracluster: tree needs p >= 1")
	}
	t := &Tree{
		P:        p,
		Children: make([][]int, p),
		Parent:   make([]int, p),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	switch shape {
	case Flat:
		for i := 1; i < p; i++ {
			t.Children[0] = append(t.Children[0], i)
			t.Parent[i] = 0
		}
	case Chain:
		for i := 1; i < p; i++ {
			t.Children[i-1] = append(t.Children[i-1], i)
			t.Parent[i] = i - 1
		}
	case Binary:
		for i := 1; i < p; i++ {
			parent := (i - 1) / 2
			t.Children[parent] = append(t.Children[parent], i)
			t.Parent[i] = parent
		}
	case Binomial:
		buildBinomial(t)
	default:
		panic(fmt.Sprintf("intracluster: unknown shape %v", shape))
	}
	return t
}

// buildBinomial constructs the MPICH-style binomial tree: node r's children
// are r | 2^k for each bit k above r's lowest set bit (highest mask first,
// so the largest subtree is served first, which is optimal under the gap
// model for homogeneous nodes).
func buildBinomial(t *Tree) {
	p := t.P
	// highest power of two <= needed to cover p
	maxBit := 0
	for (1 << (maxBit + 1)) < p {
		maxBit++
	}
	if p == 1 {
		return
	}
	for r := 0; r < p; r++ {
		// lowest set bit of r (treat root as having all bits available)
		low := maxBit + 1
		if r != 0 {
			low = 0
			for r&(1<<low) == 0 {
				low++
			}
		}
		for k := low - 1; k >= 0; k-- {
			c := r | (1 << k)
			if c < p && c != r {
				t.Children[r] = append(t.Children[r], c)
				t.Parent[c] = r
			}
		}
	}
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

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	var walk func(n int) int
	walk = func(n int) int {
		d := 0
		for _, c := range t.Children[n] {
			if cd := walk(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return walk(0)
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
// cluster broadcasts in zero time.
func Predict(shape Shape, p int, params plogp.Params, m int64) float64 {
	if p <= 1 {
		return 0
	}
	return New(shape, p).Completion(params, m)
}
