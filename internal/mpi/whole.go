package mpi

import (
	"fmt"
	"math"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/sched"
	"gridbcast/internal/sim"
	"gridbcast/internal/vnet"
)

// This file is the whole-message program ExecuteSchedule runs: every
// coordinator waits for the wide-area message, forwards it according to the
// schedule, then runs the intra-cluster broadcast tree among its local nodes.
// On a fault-free network (jittered or not) that is all it does, and the
// execution reproduces the analytic predictions bit-for-bit.
//
// A non-empty fault plan (Options.Net.Faults) arms the recovery protocol. It
// is receiver-driven, in the spirit of MagPIe's coordinator role: every
// receive carries a deadline derived from the analytic schedule (expected
// arrival plus a slack proportional to the predicted makespan). A receiver
// whose deadline passes declares itself orphaned and re-parents: it picks
// the cheapest live message holder (by pLogP link cost g(m)+L) and has it
// retransmit, extending the deadline with a doubling backoff. After
// ftRetries fruitless repairs the receiver gives up and returns, so an
// execution always terminates — crashed or unreachable processes are
// reported in Result.Completed rather than hanging the run.
//
// Modelling note: a repair retransmission is issued by a transient process
// bound to the holder's endpoint, so it does not contend with the holder's
// own scheduled sender occupation. This slightly optimistic serialisation is
// deliberate — repairs model an out-of-band recovery channel (DESIGN.md §11).

// Receive deadlines under a fault plan.
const (
	// ftSlack is the fraction of the predicted makespan granted past each
	// analytic arrival before a receive is declared overdue; ftMinSlack is
	// its floor in seconds, so near-zero makespans still leave room for
	// redelivery backoff.
	ftSlack    = 0.25
	ftMinSlack = 0.005
	// ftRetries bounds the repair rounds per orphaned receive.
	ftRetries = 3
)

// wholeExec carries the shared state of one whole-message execution. The
// sim kernel is single-threaded, so plain fields suffice.
type wholeExec struct {
	*world
	sc *sched.Schedule
	// sends[c] lists cluster c's wide-area destinations in round order.
	sends [][]int
	m     int64
	shape intracluster.Shape
	// armed selects deadline-guarded receives (a non-empty fault plan).
	armed bool
	slack float64
	// holder[c] reports cluster c's coordinator holds the message; localGot
	// [c][r] reports rank r of cluster c holds it. Together they are the
	// membership/monitoring view orphans consult to pick a new parent.
	holder   []bool
	localGot [][]bool
	// repairs[id] is the retransmission repair process id performs;
	// repairBody and repairName, the Spawn arguments every repair shares,
	// are set by the first repair.
	repairs    []repairJob
	repairBody func(p *sim.Proc)
	repairName func(id int) string
}

// repairJob is one retransmission: the message from endpoint from to
// endpoint to, under tag.
type repairJob struct {
	from, to, tag int
}

func newWholeExec(w *world, sc *sched.Schedule, sends [][]int, m int64, opt Options) *wholeExec {
	ex := &wholeExec{
		world: w, sc: sc, sends: sends, m: m, shape: opt.IntraShape,
		armed:    !opt.Net.Faults.Empty(),
		slack:    max(ftSlack*sc.Makespan, ftMinSlack),
		holder:   make([]bool, w.g.N()),
		localGot: make([][]bool, w.g.N()),
	}
	got := make([]bool, len(w.layout)) // one row per cluster, by endpoint
	for c := range ex.localGot {
		lo, hi := w.offsets[c], w.offsets[c]+w.g.Clusters[c].Nodes
		ex.localGot[c] = got[lo:hi:hi]
	}
	return ex
}

// node is the program of the process on endpoint p.ID().
func (ex *wholeExec) node(p *sim.Proc) {
	np := ex.layout[p.ID()]
	if np.Rank == 0 {
		ex.coordinator(p, np.Cluster)
	} else {
		ex.local(p, np.Cluster, np.Rank)
	}
}

// coordinator waits for the wide-area message (unless c is the root),
// forwards it to c's destinations, then starts the local broadcast.
func (ex *wholeExec) coordinator(p *sim.Proc, c int) {
	nw, res := ex.nw, ex.res
	cl := ex.g.Clusters[c]
	coord := ex.offsets[c]
	if c != ex.sc.Root {
		msg, ok := ex.recvInter(p, c)
		if !ok {
			return // orphaned for good: Completed[c] stays false
		}
		res.CoordinatorArrival[c] = msg.ArrivedAt
		if msg.ArrivedAt > res.ClusterCompletion[c] {
			res.ClusterCompletion[c] = msg.ArrivedAt
		}
	}
	ex.holder[c] = true
	ex.localGot[c][0] = true
	for _, dst := range ex.sends[c] {
		nw.Send(p, coord, ex.offsets[dst], ex.m, TagInter, nil)
	}
	switch {
	case cl.BcastTime > 0:
		p.Wait(cl.BcastTime)
		res.ClusterCompletion[c] = p.Now()
		for r := range ex.localGot[c] {
			ex.localGot[c][r] = true
		}
	case cl.Nodes == 1:
		res.ClusterCompletion[c] = p.Now()
	default:
		var kids [64]int
		for _, child := range ex.shape.AppendChildren(kids[:0], cl.Nodes, 0) {
			nw.Send(p, coord, coord+child, ex.m, TagIntra, nil)
		}
	}
}

// local waits for the message at rank r of cluster c and forwards it down
// the local tree.
func (ex *wholeExec) local(p *sim.Proc, c, r int) {
	msg, ok := ex.recvIntra(p, c, r)
	if !ok {
		return
	}
	ex.localGot[c][r] = true
	coord := ex.offsets[c]
	var kids [64]int
	for _, child := range ex.shape.AppendChildren(kids[:0], ex.g.Clusters[c].Nodes, r) {
		ex.nw.Send(p, coord+r, coord+child, ex.m, TagIntra, nil)
	}
	if msg.ArrivedAt > ex.res.ClusterCompletion[c] {
		ex.res.ClusterCompletion[c] = msg.ArrivedAt
	}
}

// recvInter waits for the wide-area message at cluster c's coordinator.
// Under a fault plan it re-parents onto the cheapest live holder whenever
// the deadline passes.
func (ex *wholeExec) recvInter(p *sim.Proc, c int) (*vnet.Message, bool) {
	coord := ex.offsets[c]
	match := func(m *vnet.Message) bool { return m.Tag == TagInter }
	if !ex.armed {
		return ex.nw.RecvMatch(p, coord, match), true
	}
	deadline := ex.sc.RT[c] + ex.slack
	for attempt := 0; ; attempt++ {
		msg, ok := ex.nw.RecvMatchUntil(p, coord, deadline, match)
		if ok {
			return msg, true
		}
		if attempt >= ftRetries {
			return nil, false
		}
		ext := ex.slack
		if s := ex.bestHolder(c); s >= 0 {
			link := ex.g.Inter[s][c]
			ext = link.SendOverhead(ex.m) + link.Gap(ex.m) + link.L + ex.slack
			ex.repair(ex.offsets[s], coord, TagInter)
		}
		deadline = p.Now() + ext*pow2(attempt)
	}
}

// recvIntra is recvInter for a local node: the fallback parent is the lowest
// live local rank that already holds the message (intra links are uniform,
// so lowest rank is also cheapest).
func (ex *wholeExec) recvIntra(p *sim.Proc, c, r int) (*vnet.Message, bool) {
	coord := ex.offsets[c]
	match := func(m *vnet.Message) bool { return m.Tag == TagIntra }
	if !ex.armed {
		return ex.nw.RecvMatch(p, coord+r, match), true
	}
	deadline := ex.sc.Completion[c] + ex.slack
	for attempt := 0; ; attempt++ {
		msg, ok := ex.nw.RecvMatchUntil(p, coord+r, deadline, match)
		if ok {
			return msg, true
		}
		if attempt >= ftRetries {
			return nil, false
		}
		ext := ex.slack
		if s := ex.bestLocalHolder(c, r); s >= 0 {
			intra := ex.g.Clusters[c].Intra
			ext = intra.SendOverhead(ex.m) + intra.Gap(ex.m) + intra.L + ex.slack
			ex.repair(coord+s, coord+r, TagIntra)
		}
		deadline = p.Now() + ext*pow2(attempt)
	}
}

// bestHolder picks the live coordinator holding the message with the
// cheapest link into c (ties to the lowest cluster id), or -1.
func (ex *wholeExec) bestHolder(c int) int {
	best, bestCost := -1, math.Inf(1)
	for s := range ex.holder {
		if s == c || !ex.holder[s] || ex.nw.Crashed(ex.offsets[s]) {
			continue
		}
		l := ex.g.Inter[s][c]
		if cost := l.Gap(ex.m) + l.L; cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// bestLocalHolder picks the lowest live rank of cluster c (other than r)
// that holds the message, or -1.
func (ex *wholeExec) bestLocalHolder(c, r int) int {
	for s, got := range ex.localGot[c] {
		if s != r && got && !ex.nw.Crashed(ex.offsets[c]+s) {
			return s
		}
	}
	return -1
}

// repair retransmits the message from endpoint `from` to endpoint `to` via a
// transient process (the out-of-band recovery channel; see the file comment).
func (ex *wholeExec) repair(from, to, tag int) {
	ex.res.Reparents++
	if ex.repairBody == nil {
		ex.repairBody, ex.repairName = ex.runRepair, ex.nameRepair
	}
	ex.repairs = append(ex.repairs, repairJob{from, to, tag})
	ex.env.Spawn(len(ex.repairs)-1, ex.repairBody, ex.repairName)
}

// runRepair is the program of repair process rp.ID().
func (ex *wholeExec) runRepair(rp *sim.Proc) {
	j := ex.repairs[rp.ID()]
	ex.nw.Send(rp, j.from, j.to, ex.m, j.tag, nil)
}

// nameRepair names repair process id repair-<from>-<to>.
func (ex *wholeExec) nameRepair(id int) string {
	j := ex.repairs[id]
	return fmt.Sprintf("repair-%d-%d", j.from, j.to)
}

// finish fills the per-cluster completion report after the run.
func (ex *wholeExec) finish() {
	for c, got := range ex.localGot {
		all := true
		for _, b := range got {
			if b {
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
