package topology

import (
	"fmt"
)

// Delta describes a measured platform drift localised to one cluster: the
// wide-area links touching it got faster or slower, and/or its local
// broadcast time changed. This is the replanning unit of DESIGN.md §11 — the
// paper's §7 observes exactly this kind of drift between the moment pLogP
// parameters are measured and the moment the broadcast runs.
//
// Scale fields multiply the existing link parameters; 0 (zero value) and 1
// both mean "unchanged". Out* applies to links leaving the cluster, In* to
// links entering it.
type Delta struct {
	Cluster                  int
	OutGapScale, OutLatScale float64
	InGapScale, InLatScale   float64
	// BcastTime, when > 0, replaces the cluster's modelled local broadcast
	// time (Cluster.BcastTime). Zero leaves the local phase untouched.
	BcastTime float64
}

// scaleOrOne normalises a Delta scale field.
func scaleOrOne(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// Validate checks the delta against a grid of n clusters.
func (d Delta) Validate(n int) error {
	if d.Cluster < 0 || d.Cluster >= n {
		return fmt.Errorf("topology: delta cluster %d out of range [0,%d)", d.Cluster, n)
	}
	for _, s := range []float64{d.OutGapScale, d.OutLatScale, d.InGapScale, d.InLatScale} {
		if s < 0 {
			return fmt.Errorf("topology: negative delta scale %g", s)
		}
	}
	if d.BcastTime < 0 {
		return fmt.Errorf("topology: negative delta bcast time %g", d.BcastTime)
	}
	return nil
}

// Identity reports whether the delta changes nothing.
func (d Delta) Identity() bool {
	return scaleOrOne(d.OutGapScale) == 1 && scaleOrOne(d.OutLatScale) == 1 &&
		scaleOrOne(d.InGapScale) == 1 && scaleOrOne(d.InLatScale) == 1 &&
		d.BcastTime == 0
}

// ApplyDelta returns a new grid with the drift applied; the receiver is not
// modified (grids are immutable once costed). Only row and column d.Cluster
// of the wide-area matrix differ from the original, which is what lets
// PatchCosts and the schedule replanner (internal/sched) reuse almost all of
// the original platform's derived state.
func (g *Grid) ApplyDelta(d Delta) (*Grid, error) {
	if err := d.Validate(g.N()); err != nil {
		return nil, err
	}
	ng := g.Clone()
	c := d.Cluster
	outG, outL := scaleOrOne(d.OutGapScale), scaleOrOne(d.OutLatScale)
	inG, inL := scaleOrOne(d.InGapScale), scaleOrOne(d.InLatScale)
	for j := range ng.Inter[c] {
		if j == c {
			continue
		}
		if outG != 1 {
			ng.Inter[c][j].G = ng.Inter[c][j].G.Scale(outG)
		}
		if outL != 1 {
			ng.Inter[c][j].L *= outL
		}
		if inG != 1 {
			ng.Inter[j][c].G = ng.Inter[j][c].G.Scale(inG)
		}
		if inL != 1 {
			ng.Inter[j][c].L *= inL
		}
	}
	if d.BcastTime > 0 {
		ng.Clusters[c].BcastTime = d.BcastTime
	}
	return ng, nil
}

// PatchCosts seeds dst's cost store from src's, for a dst that differs
// from src only in wide-area row and column c (the ApplyDelta contract):
// for every size resident in src, G (and WT where src has derived it) is
// copied and only its row and column c re-evaluated against dst's
// parameters, with the expressions EdgeCosts uses. The latency matrix is
// patched once and aliased by every size; src's matrices are never written. The result is bitwise identical to dst
// costing each size from scratch — unchanged links carry unchanged
// parameters, so re-evaluating them would reproduce the exact same floats —
// at O(n) pLogP evaluations per size instead of O(n²).
func PatchCosts(src, dst *Grid, c int) {
	s := &src.costs
	s.mu.Lock()
	// Snapshots of the resident entries' size, G and WT, least recently
	// used first, so dst's recency order mirrors src's.
	var sizes []EdgeCosts
	for ec := s.lru.prev; ec != nil && ec != &s.lru; ec = ec.prev {
		sizes = append(sizes, EdgeCosts{m: ec.m, G: ec.G, wt: ec.wt})
	}
	srcLat := s.lat
	s.mu.Unlock()
	if len(sizes) == 0 {
		return
	}

	n := dst.N()
	d := &dst.costs
	lat := buildMatrix(n, srcLat, c, dst.Latency)
	d.mu.Lock()
	if d.lat == nil {
		d.lat = lat
	}
	lat = d.lat
	d.mu.Unlock()

	for _, r := range sizes {
		m := r.m
		ec := &EdgeCosts{
			G:     buildMatrix(n, r.G, c, func(i, j int) float64 { return dst.Gap(i, j, m) }),
			L:     lat,
			m:     m,
			store: d,
		}
		if r.wt != nil {
			ec.wt = buildMatrix(n, r.wt, c, func(i, j int) float64 { return ec.G[j][i] + ec.L[j][i] })
		}
		d.mu.Lock()
		if d.entries[m] == nil {
			d.insert(ec)
		}
		d.mu.Unlock()
	}
}
