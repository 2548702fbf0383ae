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
		for c, dsts := range sends {
			startSegmentedCluster(w, sp, c, ss.LocalSeg && ss.LocalSegmented[c], dsts, opt.IntraShape)
		}
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

// startSegmentedCluster spawns the coordinator (segment streaming) and local
// node processes of one cluster. localSeg selects the streaming local phase:
// the coordinator forwards each segment down the local pipelined chain (the
// streaming shape of sched's per-segment model) as soon as it holds it (and
// its wide-area sends are done), and every node relays segment-major,
// reproducing the analytic T_i(s, K).
//
// The coordinator streams all K segments to its first destination, then all
// K to the next — the order the analytic evaluator times.
func startSegmentedCluster(w *world, sp *sched.SegmentedProblem, c int, localSeg bool, destinations []int, shape intracluster.Shape) {
	env, nw, res := w.env, w.nw, w.res
	cl := w.g.Clusters[c]
	coord := w.offsets[c]
	var tree *intracluster.Tree
	if cl.BcastTime == 0 && cl.Nodes > 1 {
		if localSeg {
			tree = intracluster.New(intracluster.Chain, cl.Nodes)
		} else {
			tree = intracluster.New(shape, cl.Nodes)
		}
	}

	env.Process(fmt.Sprintf("coord-%s", cl.Name), func(p *sim.Proc) {
		held := 0 // segments received so far (parent streams them in order)
		if c == sp.Root {
			held = sp.K
		}
		// recvThrough blocks until the coordinator holds segment q. The
		// parent sends segments in index order over one FIFO link, so
		// arrival order is segment order; arrival timestamps are recorded
		// at delivery, even when the process is busy forwarding.
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
		for _, dst := range destinations {
			for q := 0; q < sp.K; q++ {
				recvThrough(q)
				nw.SendSeg(p, coord, w.offsets[dst], segSize(sp, q), q, TagInter, nil)
			}
		}
		if localSeg && tree != nil {
			// Streaming local phase: forward each segment to every local
			// child as it arrives. On sender coordinators every segment is
			// already held here, so the local stream starts at the wide-area
			// idle time; leaf coordinators interleave receive and forward.
			for q := 0; q < sp.K; q++ {
				recvThrough(q)
				for _, child := range tree.Children[0] {
					nw.SendSeg(p, coord, coord+child, segSize(sp, q), q, TagIntra, nil)
				}
			}
			return
		}
		recvThrough(sp.K - 1) // drain the stream on leaf coordinators
		// Local broadcast of the reassembled message: the modelled fixed
		// time or a real whole-message tree, as in ExecuteSchedule.
		switch {
		case cl.BcastTime > 0:
			p.Wait(cl.BcastTime)
			res.ClusterCompletion[c] = p.Now()
		case cl.Nodes == 1:
			res.ClusterCompletion[c] = p.Now()
		default:
			for _, child := range tree.Children[0] {
				nw.Send(p, coord, coord+child, sp.MsgSize, TagIntra, nil)
			}
		}
	})

	if tree == nil {
		return
	}
	for r := 1; r < cl.Nodes; r++ {
		if localSeg {
			env.Process(fmt.Sprintf("%s-%d", cl.Name, r), func(p *sim.Proc) {
				for q := 0; q < sp.K; q++ {
					msg := nw.RecvMatch(p, coord+r, func(msg *vnet.Message) bool { return msg.Tag == TagIntra })
					if msg.Seg != q {
						panic(fmt.Sprintf("mpi: %s-%d received local segment %d, want %d", cl.Name, r, msg.Seg, q))
					}
					for _, child := range tree.Children[r] {
						nw.SendSeg(p, coord+r, coord+child, segSize(sp, q), q, TagIntra, nil)
					}
					// The last segment's arrival at the slowest node closes
					// the cluster's streamed local broadcast.
					if q == sp.K-1 && msg.ArrivedAt > res.ClusterCompletion[c] {
						res.ClusterCompletion[c] = msg.ArrivedAt
					}
				}
			})
			continue
		}
		env.Process(fmt.Sprintf("%s-%d", cl.Name, r), func(p *sim.Proc) {
			msg := nw.RecvMatch(p, coord+r, func(msg *vnet.Message) bool { return msg.Tag == TagIntra })
			for _, child := range tree.Children[r] {
				nw.Send(p, coord+r, coord+child, sp.MsgSize, TagIntra, nil)
			}
			if msg.ArrivedAt > res.ClusterCompletion[c] {
				res.ClusterCompletion[c] = msg.ArrivedAt
			}
		})
	}
}
