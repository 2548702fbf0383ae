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

// PatchCosts seeds dst's edge-cost cache from src's, for a dst that differs
// from src only in wide-area row and column c (the ApplyDelta contract):
// for every message size src has already costed, the unchanged entries are
// copied and only row/column c re-evaluated against dst's parameters. The
// latency matrix is patched once and aliased by every size, as EdgeCosts
// does; src's matrices are never written. The result is bitwise identical
// to dst costing each size from scratch — unchanged links carry unchanged
// parameters, so re-evaluating them would reproduce the exact same floats —
// at O(n) evaluations instead of O(n²).
func PatchCosts(src, dst *Grid, c int) {
	src.costMu.Lock()
	sizes := make([]int64, 0, len(src.costs))
	cached := make([]*EdgeCosts, 0, len(src.costs))
	for m, ec := range src.costs {
		sizes = append(sizes, m)
		cached = append(cached, ec)
	}
	srcLat := src.lat
	src.costMu.Unlock()
	if len(sizes) == 0 {
		return
	}

	n := dst.N()
	lat := make([][]float64, n)
	for i := 0; i < n; i++ {
		lat[i] = append([]float64(nil), srcLat[i]...)
	}
	for j := 0; j < n; j++ {
		if j != c {
			lat[c][j] = dst.Latency(c, j)
			lat[j][c] = dst.Latency(j, c)
		}
	}
	dst.costMu.Lock()
	if dst.lat == nil {
		dst.lat = lat
	}
	lat = dst.lat
	dst.costMu.Unlock()

	for k, m := range sizes {
		old := cached[k]
		ec := &EdgeCosts{
			G:  make([][]float64, n),
			L:  lat,
			W:  make([][]float64, n),
			WT: make([][]float64, n),
		}
		for i := 0; i < n; i++ {
			ec.G[i] = append([]float64(nil), old.G[i]...)
			ec.W[i] = append([]float64(nil), old.W[i]...)
		}
		for j := 0; j < n; j++ {
			if j == c {
				continue
			}
			ec.G[c][j] = dst.Gap(c, j, m)
			ec.W[c][j] = ec.G[c][j] + lat[c][j]
			ec.G[j][c] = dst.Gap(j, c, m)
			ec.W[j][c] = ec.G[j][c] + lat[j][c]
		}
		for j := 0; j < n; j++ {
			ec.WT[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				ec.WT[j][i] = ec.W[i][j]
			}
		}
		dst.costMu.Lock()
		if dst.costs == nil {
			dst.costs = map[int64]*EdgeCosts{}
		}
		dst.costs[m] = ec
		dst.costMu.Unlock()
	}
}
