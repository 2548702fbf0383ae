package intracluster

// Per-segment tree timing: T_i(s, K) instead of T_i(m) (DESIGN.md §7).
//
// A pipelined local broadcast forwards the message segment by segment down
// the same tree shapes New builds: a node that holds segment q forwards it to
// every child before picking up segment q+1 (segment-major order), so deep
// trees stream — each extra level delays the last segment by one g(s)+L
// instead of the whole g(m), while each extra segment costs the fixed part
// of the gap once per child.
//
// The recurrence mirrors ArrivalTimes exactly, generalised to K segments and
// to a root whose segments become available at caller-supplied ready times
// (the wide-area per-segment arrivals of sched.SegmentedSchedule):
//
//	send := max(nicFree_n, hold_n[q] + os(s_q))
//	for each child c, in tree order:
//	    send += g(s_q)
//	    hold_c[q] = send + L + or(s_q)
//	nicFree_n = send
//
// With K = 1 and ready[0] = 0 every expression and its evaluation order
// degenerate to ArrivalTimes (nicFree starts below any hold, the single max
// passes hold+os through), so SegmentedCompletion reproduces Completion bit
// for bit — the golden degeneracy the K = 1 tests pin, matching the K = 1
// contract of the wide-area segmented engine.
//
// The convention for send overheads is ArrivalTimes': os is paid once per
// held segment before its forwards, and consecutive forwards are spaced by
// the gap alone. The message-level simulator (internal/mpi) occupies a
// sender for os+g per send, so — exactly as for the whole-message model —
// the analytic/simulated contract holds for gap-only parameter sets (every
// built-in topology; vnet_test covers the os > 0 divergence).

import "gridbcast/internal/plogp"

// SegmentSizes expands a segmentation (K segments of segSize bytes, the
// last carrying lastSize) into the per-segment payload slice the timing
// functions consume. It panics on a non-positive K.
func SegmentSizes(segSize, lastSize int64, k int) []int64 {
	if k < 1 {
		panic("intracluster: segment count must be >= 1")
	}
	sizes := make([]int64, k)
	for q := 0; q < k-1; q++ {
		sizes[q] = segSize
	}
	sizes[k-1] = lastSize
	return sizes
}

// SegmentedArrivals returns hold[node][q], the virtual time at which each
// node holds segment q under the pipelined recurrence above. ready[q] is
// when the root holds segment q (non-decreasing; nil means all zero). The
// backing array is one allocation; rows alias it.
func (t *Tree) SegmentedArrivals(p plogp.Params, sizes []int64, ready []float64) [][]float64 {
	k := len(sizes)
	if k == 0 {
		panic("intracluster: no segment sizes")
	}
	if ready != nil && len(ready) != k {
		panic("intracluster: ready times do not match segment count")
	}
	hold := make([][]float64, t.P)
	backing := make([]float64, t.P*k)
	for n := range hold {
		hold[n] = backing[n*k : (n+1)*k : (n+1)*k]
	}
	if ready != nil {
		copy(hold[0], ready)
	}
	// Per-segment parameters: all non-final segments share sizes[0], so the
	// piecewise-linear lookups run twice, not K times. (SegmentSizes builds
	// exactly this shape; hand-rolled size slices fall back per segment.)
	// One backing for the three vectors — this runs once per cluster per
	// schedule construction on the end-to-end pipeline's hot path.
	pbacking := make([]float64, 3*k)
	gq, osq, orq := pbacking[:k:k], pbacking[k:2*k:2*k], pbacking[2*k:]
	for q := 0; q < k; q++ {
		if q > 0 && sizes[q] == sizes[q-1] {
			gq[q], osq[q], orq[q] = gq[q-1], osq[q-1], orq[q-1]
			continue
		}
		gq[q] = p.Gap(sizes[q])
		osq[q] = p.SendOverhead(sizes[q])
		orq[q] = p.RecvOverhead(sizes[q])
	}
	// Nodes in BFS order: a node's holds are final before its children's
	// are computed (segments only flow parent -> child).
	queue := make([]int, 1, t.P)
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		children := t.Children[n]
		if len(children) == 0 {
			continue
		}
		queue = append(queue, children...)
		nic := hold[n][0] + osq[0] // the q = 0 max is then a pass-through
		for q := 0; q < k; q++ {
			send := hold[n][q] + osq[q]
			if send < nic {
				send = nic
			}
			for _, c := range children {
				send += gq[q]
				hold[c][q] = send + p.L + orq[q]
			}
			nic = send
		}
	}
	return hold
}

// SegmentedCompletion returns the pipelined local broadcast completion time:
// the latest time any node holds the final segment. ready follows
// SegmentedArrivals.
func (t *Tree) SegmentedCompletion(p plogp.Params, sizes []int64, ready []float64) float64 {
	hold := t.SegmentedArrivals(p, sizes, ready)
	k := len(sizes)
	var worst float64
	for _, row := range hold {
		if a := row[k-1]; a > worst {
			worst = a
		}
	}
	return worst
}
