package mpi

import (
	"fmt"
	"math"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/plogp"
	"gridbcast/internal/sched"
	"gridbcast/internal/sim"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// This file is the coordinator program every scheduled broadcast runs,
// whole-message or pipelined: each coordinator waits for the wide-area
// message, forwards it according to the schedule, then runs the
// intra-cluster broadcast among its local nodes. The message moves as a
// stream of K segments; a whole-message plan is the one-segment stream.
// Every coordinator forwards each segment as soon as it holds it, so
// downstream transmissions overlap upstream ones, and sends all K segments
// to one destination before the next — the order the analytic evaluator
// (internal/sched/segmented.go) times. Clusters that stream their local
// phase relay each segment down the local chain as it arrives (after the
// wide-area sends: the coordinator's NIC serialises), matching T_i(s, K);
// the others broadcast the reassembled message whole, matching T_i. On a
// fault-free network (jittered or not) that is all the program does, and it
// reproduces the analytic predictions.
//
// A receiver asks for the next segment it is missing. Segments that
// arrive early wait in the network's pending buffer, so jitter or
// redelivery may reorder a stream without harm.
//
// A non-empty fault plan (Options.Net.Faults) arms the recovery protocol. It
// is receiver-driven, in the spirit of MagPIe's coordinator role: every
// receiver has a deadline derived from the analytic schedule (its expected
// arrival plus a slack proportional to the predicted makespan). A receiver
// whose deadline passes declares itself orphaned and re-parents: it picks
// the cheapest live holder of the whole message (by pLogP link cost of the
// missing segments plus L), which resends, in index order, every segment
// from the first one the receiver misses, and the deadline extends with a
// doubling backoff. Segments that arrive twice are dropped. After
// ftRetries repairs the receiver gives up and returns, so an execution
// always terminates — crashed or unreachable processes are reported in
// Result.Completed rather than hanging the run.
//
// Modelling note: a repair is sent by a transient process bound to the
// holder's endpoint, so it does not contend with the holder's own scheduled
// sender occupation. This slightly optimistic serialisation is deliberate —
// repairs model an out-of-band recovery channel (DESIGN.md §11).

// Receive deadlines under a fault plan.
const (
	// ftSlack is the fraction of the predicted makespan granted past each
	// analytic arrival before a receive is declared overdue; ftMinSlack is
	// its floor in seconds, so near-zero makespans still leave room for
	// redelivery backoff.
	ftSlack    = 0.25
	ftMinSlack = 0.005
	// ftRetries bounds the repair rounds per receiver.
	ftRetries = 3
)

// parts is how a stream cuts the message: n pieces of size bytes, the last
// one of last bytes.
type parts struct {
	n          int
	size, last int64
}

// at returns the payload of piece q.
func (ps parts) at(q int) int64 {
	if q == ps.n-1 {
		return ps.last
	}
	return ps.size
}

// resend returns the sender overhead and the gap of sending pieces q.. of
// ps over link l. For one piece they are exactly os(m) and g(m), so the
// one-segment stream's repair costs are the whole-message ones, bit for
// bit.
func (ps parts) resend(l plogp.Params, q int) (os, gap float64) {
	rest := float64(ps.n - 1 - q)
	return rest*l.SendOverhead(ps.size) + l.SendOverhead(ps.last), rest*l.Gap(ps.size) + l.Gap(ps.last)
}

// stream is a schedule lowered to what the coordinator program reads.
type stream struct {
	root int
	// wide cuts the wide-area message into segments; m is its size.
	wide parts
	m    int64
	// sends[c] lists cluster c's wide-area destinations in round order.
	sends [][]int
	// rt[c] and completion[c] are when the schedule expects cluster c's
	// coordinator to hold the message and its local broadcast to end: the
	// bases of the coordinator's and the local nodes' receive deadlines.
	rt, completion []float64
	// makespan is the predicted makespan, which scales the deadline slack.
	makespan float64
	// localSeg[c] marks a cluster that streams its local phase; nil when
	// none does.
	localSeg []bool
}

// execute runs st on grid g; stuck suffixes the error of a run that ends
// with processes still blocked.
func execute(g *topology.Grid, st stream, opt Options, stuck string) (*Result, error) {
	return run(g, sched.Layout(g, 0), opt, stuck, func(w *world) func() {
		ex := &streamExec{world: w, stream: st, shape: opt.IntraShape, slack: max(ftSlack*st.makespan, ftMinSlack)}
		if !opt.Net.Faults.Empty() {
			ex.have = make([]bool, len(w.layout))
		}
		w.spawnNodes(ex.node)
		if ex.have == nil {
			return nil
		}
		return ex.finish
	})
}

// streamExec carries the shared state of one execution. The sim kernel is
// single-threaded, so plain fields suffice.
type streamExec struct {
	*world
	stream
	shape intracluster.Shape
	slack float64
	// have[e] reports endpoint e holds the whole message: the membership
	// view orphans consult to pick a new parent. It and the repair state
	// below exist only under a fault plan (have == nil otherwise).
	have []bool
	// repairs[id] is the resend repair process id performs; repairBody and
	// repairName, the Spawn arguments every repair shares, are set by the
	// first repair.
	repairs    []repairJob
	repairBody func(p *sim.Proc)
	repairName func(id int) string
}

// repairJob is one resend: pieces q.. of ps from endpoint from to endpoint
// to, under tag.
type repairJob struct {
	from, to, tag, q int
	ps               parts
}

// receiver is one process's receive state: its endpoint, the tag and cut
// of the stream it gets (TagInter at a coordinator), the next piece it is
// missing, the latest arrival among the pieces it took and, under a fault
// plan, its deadline and the repairs it has spent.
type receiver struct {
	e, tag   int
	ps       parts
	next     int
	at       float64
	deadline float64
	attempt  int
}

// streams reports whether cluster c relays each segment down its local
// chain (a tree-based local phase the schedule marked for streaming).
func (ex *streamExec) streams(c int) bool {
	cl := &ex.g.Clusters[c]
	return ex.localSeg != nil && ex.localSeg[c] && cl.BcastTime == 0 && cl.Nodes > 1
}

// node is the program of the process on endpoint p.ID().
func (ex *streamExec) node(p *sim.Proc) {
	np := ex.layout[p.ID()]
	if np.Rank == 0 {
		ex.coordinator(p, np.Cluster)
	} else {
		ex.local(p, np.Cluster, np.Rank)
	}
}

// coordinator streams the message to cluster c's destinations, taking each
// segment as it needs it, then runs the cluster's local phase.
func (ex *streamExec) coordinator(p *sim.Proc, c int) {
	nw, res := ex.nw, ex.res
	cl := &ex.g.Clusters[c]
	coord := ex.offsets[c]
	rv := receiver{e: coord, tag: TagInter, ps: ex.wide, deadline: ex.rt[c] + ex.slack}
	if c == ex.root {
		rv.next = ex.wide.n
		ex.hold(coord, 1)
	}
	for _, dst := range ex.sends[c] {
		for q := 0; q < ex.wide.n; q++ {
			if !ex.recvThrough(p, &rv, q) {
				return // orphaned for good: Completed[c] stays false
			}
			nw.SendSeg(p, coord, ex.offsets[dst], ex.wide.at(q), q, TagInter, nil)
		}
	}
	var kids [64]int
	if ex.streams(c) {
		// On sender coordinators every segment is already held here, so
		// the local stream starts at the wide-area idle time; leaf
		// coordinators interleave receive and forward.
		children := intracluster.Chain.AppendChildren(kids[:0], cl.Nodes, 0)
		for q := 0; q < ex.wide.n; q++ {
			if !ex.recvThrough(p, &rv, q) {
				return
			}
			for _, child := range children {
				nw.SendSeg(p, coord, coord+child, ex.wide.at(q), q, TagIntra, nil)
			}
		}
		return
	}
	if !ex.recvThrough(p, &rv, ex.wide.n-1) {
		return
	}
	switch {
	case cl.BcastTime > 0:
		p.Wait(cl.BcastTime)
		res.ClusterCompletion[c] = p.Now()
		ex.hold(coord, cl.Nodes)
	case cl.Nodes == 1:
		res.ClusterCompletion[c] = p.Now()
	default:
		for _, child := range ex.shape.AppendChildren(kids[:0], cl.Nodes, 0) {
			nw.Send(p, coord, coord+child, ex.m, TagIntra, nil)
		}
	}
}

// local waits for the message at rank r of cluster c and forwards it down
// the local tree: segment by segment down the chain on a streaming
// cluster, whole down the IntraShape tree otherwise.
func (ex *streamExec) local(p *sim.Proc, c, r int) {
	coord := ex.offsets[c]
	rv := receiver{e: coord + r, tag: TagIntra, ps: parts{1, ex.m, ex.m}, deadline: ex.completion[c] + ex.slack}
	shape := ex.shape
	if ex.streams(c) {
		rv.ps, shape = ex.wide, intracluster.Chain
	}
	var kids [64]int
	children := shape.AppendChildren(kids[:0], ex.g.Clusters[c].Nodes, r)
	for q := 0; q < rv.ps.n; q++ {
		if !ex.recvThrough(p, &rv, q) {
			return
		}
		for _, child := range children {
			ex.nw.SendSeg(p, coord+r, coord+child, rv.ps.at(q), q, TagIntra, nil)
		}
	}
}

// recvThrough blocks until rv holds piece q (false: rv gave up). It asks
// for the next piece rv misses and drops the older copies a repair left
// behind. Arrival times are stamped at delivery, even when the process was
// busy forwarding; the process holds the message at the latest arrival of
// its pieces, which is not the last piece's when jitter reorders the
// stream or a repair fills a gap that later pieces had already passed.
func (ex *streamExec) recvThrough(p *sim.Proc, rv *receiver, q int) bool {
	for rv.next <= q {
		tag, next := rv.tag, rv.next
		match := func(m *vnet.Message) bool { return m.Tag == tag && m.Seg <= next }
		var msg *vnet.Message
		if ex.have == nil {
			msg = ex.nw.RecvMatch(p, rv.e, match)
		} else if msg = ex.await(p, rv, match); msg == nil {
			return false
		}
		if msg.Seg < next {
			continue
		}
		rv.next++
		rv.at = max(rv.at, msg.ArrivedAt)
		if rv.next < rv.ps.n {
			continue
		}
		c, at := ex.layout[rv.e].Cluster, rv.at
		if rv.tag == TagInter {
			ex.res.CoordinatorArrival[c] = at
		}
		if at > ex.res.ClusterCompletion[c] {
			ex.res.ClusterCompletion[c] = at
		}
		ex.hold(rv.e, 1)
	}
	return true
}

// await is one matching receive for rv under a fault plan, bounded by rv's
// deadline: each time it passes, rv re-parents onto the cheapest live
// holder, which resends what rv misses, until ftRetries repairs are spent
// (nil: rv gives up).
func (ex *streamExec) await(p *sim.Proc, rv *receiver, match func(*vnet.Message) bool) *vnet.Message {
	for {
		msg, ok := ex.nw.RecvMatchUntil(p, rv.e, rv.deadline, match)
		if ok {
			return msg
		}
		if rv.attempt >= ftRetries {
			return nil
		}
		ext := ex.slack
		if from, l := ex.parent(rv); from >= 0 {
			os, gap := rv.ps.resend(l, rv.next)
			ext = os + gap + l.L + ex.slack
			ex.repair(repairJob{from: from, to: rv.e, tag: rv.tag, q: rv.next, ps: rv.ps})
		}
		rv.deadline = p.Now() + ext*pow2(rv.attempt)
		rv.attempt++
	}
}

// parent picks rv's new parent and the link from it, or -1. A coordinator
// takes the live coordinator holding the message whose link resends the
// missing segments cheapest (ties to the lowest cluster id); a local node
// takes the lowest live rank of its cluster holding it (intra links are
// uniform, so lowest rank is also cheapest).
func (ex *streamExec) parent(rv *receiver) (int, plogp.Params) {
	np := ex.layout[rv.e]
	c := np.Cluster
	if np.Rank > 0 {
		coord := ex.offsets[c]
		for s := range ex.g.Clusters[c].Nodes {
			if e := coord + s; e != rv.e && ex.live(e) {
				return e, ex.g.Clusters[c].Intra
			}
		}
		return -1, plogp.Params{}
	}
	best, bestCost := -1, math.Inf(1)
	for s := range ex.g.N() {
		if s == c || !ex.live(ex.offsets[s]) {
			continue
		}
		l := ex.g.Inter[s][c]
		if _, gap := rv.ps.resend(l, rv.next); gap+l.L < bestCost {
			best, bestCost = s, gap+l.L
		}
	}
	if best < 0 {
		return -1, plogp.Params{}
	}
	return ex.offsets[best], ex.g.Inter[best][c]
}

// live reports whether endpoint e holds the message and has not crashed.
func (ex *streamExec) live(e int) bool { return ex.have[e] && !ex.nw.Crashed(e) }

// hold records that endpoints e..e+n-1 hold the message (a no-op without a
// fault plan, where nothing reads it).
func (ex *streamExec) hold(e, n int) {
	if ex.have != nil {
		for i := e; i < e+n; i++ {
			ex.have[i] = true
		}
	}
}

// repair resends pieces via a transient process (the out-of-band recovery
// channel; see the file comment).
func (ex *streamExec) repair(j repairJob) {
	ex.res.Reparents++
	if ex.repairBody == nil {
		ex.repairBody, ex.repairName = ex.runRepair, ex.nameRepair
	}
	ex.repairs = append(ex.repairs, j)
	ex.env.Spawn(len(ex.repairs)-1, ex.repairBody, ex.repairName)
}

// runRepair is the program of repair process rp.ID().
func (ex *streamExec) runRepair(rp *sim.Proc) {
	j := ex.repairs[rp.ID()]
	for q := j.q; q < j.ps.n; q++ {
		ex.nw.SendSeg(rp, j.from, j.to, j.ps.at(q), q, j.tag, nil)
	}
}

// nameRepair names repair process id repair-<from>-<to>.
func (ex *streamExec) nameRepair(id int) string {
	j := ex.repairs[id]
	return fmt.Sprintf("repair-%d-%d", j.from, j.to)
}

// finish fills the per-cluster completion report after a run under a fault
// plan.
func (ex *streamExec) finish() {
	for c, cl := range ex.g.Clusters {
		lo := ex.offsets[c]
		all := true
		for _, got := range ex.have[lo : lo+cl.Nodes] {
			if got {
				ex.res.NodesReached++
			} else {
				all = false
			}
		}
		ex.res.Completed[c] = all
	}
}

// pow2 returns 2^k as a float, saturating the shift at 6 so extensions stay
// bounded.
func pow2(k int) float64 {
	if k > 6 {
		k = 6
	}
	return float64(int(1) << uint(k))
}
