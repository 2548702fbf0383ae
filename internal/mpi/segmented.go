package mpi

// Segmented (pipelined) schedule execution: the wide-area broadcast moves K
// segments instead of one message, and every coordinator forwards each
// segment as soon as it holds it, so downstream transmissions overlap
// upstream ones. This is the message-level counterpart of the analytic model
// in internal/sched/segmented.go: with an ideal network the measured
// makespan reproduces the analytic one (up to event-scheduling rounding),
// which the integration tests pin. Local broadcasts below the coordinators
// follow the schedule's per-cluster decision: clusters marked in
// LocalSegmented stream each segment down their local tree as it arrives
// (after any wide-area sends — the coordinator's NIC serialises), matching
// the analytic T_i(s, K); the rest broadcast the reassembled message whole,
// matching T_i.

import (
	"fmt"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/sched"
	"gridbcast/internal/sim"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// ExecuteSegmentedSchedule runs the pipelined inter-cluster schedule ss
// (plus per-cluster local broadcasts of the reassembled message) on grid g.
// The schedule must be valid for the grid, message size and segmentation.
func ExecuteSegmentedSchedule(g *topology.Grid, ss *sched.SegmentedSchedule, opt Options) (*Result, error) {
	sp, err := sched.NewSegmentedProblem(g, ss.Root, ss.MsgSize, ss.SegSize,
		sched.Options{IntraShape: opt.IntraShape, Overlap: opt.Overlap, SegmentedLocal: ss.LocalSeg})
	if err != nil {
		return nil, err
	}
	if err := ss.Validate(sp); err != nil {
		return nil, fmt.Errorf("mpi: refusing invalid segmented schedule: %w", err)
	}
	if err := opt.Net.Validate(g.TotalNodes()); err != nil {
		return nil, err
	}
	// Segment streams have no per-segment recovery protocol: only link
	// degradation is meaningful here. Loss and crash scenarios belong to the
	// whole-message executor (ExecuteSchedule).
	if f := opt.Net.Faults; f != nil && (len(f.Loss) > 0 || len(f.Crashes) > 0) {
		return nil, fmt.Errorf("mpi: segmented execution supports Degrade faults only (loss/crash recovery is whole-message)")
	}

	sends := sendLists(g.N(), ss.Events)
	return run(g, sched.Layout(g, 0), opt, " (lost segment?)", func(w *world) func() {
		ex := &segExec{world: w, sp: sp, ss: ss, sends: sends, shape: opt.IntraShape}
		w.spawnNodes(ex.node)
		return nil
	})
}

// segSize returns the payload of segment q.
func segSize(sp *sched.SegmentedProblem, q int) int64 {
	if q == sp.K-1 {
		return sp.LastSize
	}
	return sp.SegSize
}

// segExec carries the shared state of one segmented execution.
type segExec struct {
	*world
	sp *sched.SegmentedProblem
	ss *sched.SegmentedSchedule
	// sends[c] lists cluster c's wide-area destinations in round order.
	sends [][]int
	shape intracluster.Shape
}

// localSeg reports whether cluster c streams its local phase: the
// coordinator forwards each segment down the local pipelined chain (the
// streaming shape of sched's per-segment model) as soon as it holds it
// (and its wide-area sends are done), and every node relays segment-major,
// reproducing the analytic T_i(s, K). Otherwise the cluster broadcasts the
// reassembled message whole down its IntraShape tree.
func (ex *segExec) localSeg(c int) bool { return ex.ss.LocalSeg && ex.ss.LocalSegmented[c] }

// localShape is the tree cluster c's local phase runs on.
func (ex *segExec) localShape(c int) intracluster.Shape {
	if ex.localSeg(c) {
		return intracluster.Chain
	}
	return ex.shape
}

// node is the program of the process on endpoint p.ID().
func (ex *segExec) node(p *sim.Proc) {
	np := ex.layout[p.ID()]
	switch {
	case np.Rank == 0:
		ex.coordinator(p, np.Cluster)
	case ex.localSeg(np.Cluster):
		ex.streamLocal(p, np.Cluster, np.Rank)
	default:
		ex.wholeLocal(p, np.Cluster, np.Rank)
	}
}

// coordinator streams all K segments to its first destination, then all K
// to the next — the order the analytic evaluator times — and then runs the
// cluster's local phase.
func (ex *segExec) coordinator(p *sim.Proc, c int) {
	sp, nw, res := ex.sp, ex.nw, ex.res
	cl := ex.g.Clusters[c]
	coord := ex.offsets[c]
	held := 0 // segments received so far (parent streams them in order)
	if c == sp.Root {
		held = sp.K
	}
	// recvThrough blocks until the coordinator holds segment q. The parent
	// sends segments in index order over one FIFO link, so arrival order is
	// segment order; arrival timestamps are recorded at delivery, even when
	// the process is busy forwarding.
	recvThrough := func(q int) {
		for held <= q {
			msg := nw.RecvMatch(p, coord, func(m *vnet.Message) bool { return m.Tag == TagInter })
			if msg.Seg != held {
				panic(fmt.Sprintf("mpi: cluster %s received segment %d, want %d", cl.Name, msg.Seg, held))
			}
			held++
			res.CoordinatorArrival[c] = msg.ArrivedAt
		}
	}
	for _, dst := range ex.sends[c] {
		for q := 0; q < sp.K; q++ {
			recvThrough(q)
			nw.SendSeg(p, coord, ex.offsets[dst], segSize(sp, q), q, TagInter, nil)
		}
	}
	var kids [64]int
	children := ex.localShape(c).AppendChildren(kids[:0], cl.Nodes, 0)
	if ex.localSeg(c) && cl.BcastTime == 0 && cl.Nodes > 1 {
		// Streaming local phase: forward each segment to every local child
		// as it arrives. On sender coordinators every segment is already
		// held here, so the local stream starts at the wide-area idle time;
		// leaf coordinators interleave receive and forward.
		for q := 0; q < sp.K; q++ {
			recvThrough(q)
			for _, child := range children {
				nw.SendSeg(p, coord, coord+child, segSize(sp, q), q, TagIntra, nil)
			}
		}
		return
	}
	recvThrough(sp.K - 1) // drain the stream on leaf coordinators
	// Local broadcast of the reassembled message: the modelled fixed time
	// or a real whole-message tree, as in ExecuteSchedule.
	switch {
	case cl.BcastTime > 0:
		p.Wait(cl.BcastTime)
		res.ClusterCompletion[c] = p.Now()
	case cl.Nodes == 1:
		res.ClusterCompletion[c] = p.Now()
	default:
		for _, child := range children {
			nw.Send(p, coord, coord+child, sp.MsgSize, TagIntra, nil)
		}
	}
}

// streamLocal relays each segment down cluster c's local chain as it
// arrives at rank r; the last segment's arrival at the slowest node closes
// the cluster's streamed local broadcast.
func (ex *segExec) streamLocal(p *sim.Proc, c, r int) {
	sp, nw := ex.sp, ex.nw
	cl := ex.g.Clusters[c]
	coord := ex.offsets[c]
	var kids [64]int
	children := intracluster.Chain.AppendChildren(kids[:0], cl.Nodes, r)
	for q := 0; q < sp.K; q++ {
		msg := nw.RecvMatch(p, coord+r, func(msg *vnet.Message) bool { return msg.Tag == TagIntra })
		if msg.Seg != q {
			panic(fmt.Sprintf("mpi: %s-%d received local segment %d, want %d", cl.Name, r, msg.Seg, q))
		}
		for _, child := range children {
			nw.SendSeg(p, coord+r, coord+child, segSize(sp, q), q, TagIntra, nil)
		}
		if q == sp.K-1 && msg.ArrivedAt > ex.res.ClusterCompletion[c] {
			ex.res.ClusterCompletion[c] = msg.ArrivedAt
		}
	}
}

// wholeLocal forwards the reassembled message down cluster c's local tree
// from rank r.
func (ex *segExec) wholeLocal(p *sim.Proc, c, r int) {
	nw := ex.nw
	coord := ex.offsets[c]
	msg := nw.RecvMatch(p, coord+r, func(msg *vnet.Message) bool { return msg.Tag == TagIntra })
	var kids [64]int
	for _, child := range ex.shape.AppendChildren(kids[:0], ex.g.Clusters[c].Nodes, r) {
		nw.Send(p, coord+r, coord+child, ex.sp.MsgSize, TagIntra, nil)
	}
	if msg.ArrivedAt > ex.res.ClusterCompletion[c] {
		ex.res.ClusterCompletion[c] = msg.ArrivedAt
	}
}
