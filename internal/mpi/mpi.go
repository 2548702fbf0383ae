// Package mpi executes grid broadcasts message-by-message on the virtual
// network, playing the role of the paper's modified MagPIe/LAM-MPI runtime
// on the real GRID5000 testbed (§7).
//
// Every machine of the grid is a simulated process. A broadcast schedule is
// executed exactly as the modified MagPIe would: each cluster coordinator
// waits for the wide-area message, forwards it according to the schedule,
// then runs the intra-cluster broadcast tree among its local nodes. The
// returned "measured" makespan is observed from the message flow itself and
// is computed by an entirely independent code path from the analytic
// predictions in internal/sched — agreement between the two is what the
// paper's Figures 5 and 6 compare.
package mpi

import (
	"context"
	"fmt"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/plogp"
	"gridbcast/internal/sched"
	"gridbcast/internal/sim"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// Tags distinguish wide-area from local traffic.
const (
	TagInter = 1
	TagIntra = 2
)

// Options tune an execution.
type Options struct {
	// IntraShape is the local broadcast tree (default binomial, as in
	// MagPIe and the paper).
	IntraShape intracluster.Shape
	// Net configures network non-idealities (jitter, software overhead).
	// The zero value reproduces analytic predictions exactly.
	Net vnet.Config
	// Overlap names the completion model the schedule was built under
	// (sched.Options.Overlap). It only affects the pre-execution schedule
	// validation — the message-level execution itself is model-free — but
	// schedules produced under the overlap model carry overlap completions
	// and fail validation against a strict-model problem without it.
	Overlap bool
	// Ctx, when non-nil, cancels the simulation cooperatively between event
	// batches (the run returns ctx.Err()).
	Ctx context.Context
	// FT tunes the failure-aware execution path (receive deadlines and
	// orphan re-parenting); nil selects the defaults. The path activates
	// when Net.Faults is non-empty or FT is set explicitly — the fault-free
	// path is bit-for-bit unchanged otherwise.
	FT *FTOptions
}

// Result is the outcome of one executed broadcast.
type Result struct {
	// Makespan is the virtual time at which the last process held the
	// message (and any trailing fixed broadcast time elapsed).
	Makespan float64
	// ClusterCompletion is the completion time of each cluster's local
	// broadcast.
	ClusterCompletion []float64
	// CoordinatorArrival is when each cluster's coordinator received the
	// wide-area message (0 for the root cluster).
	CoordinatorArrival []float64
	// Messages and Bytes count the traffic that crossed the network.
	Messages, Bytes int64
	// Completed[c] reports whether every node of cluster c held the message
	// when the run ended (all true on a fault-free execution). Under faults
	// the Makespan is the degraded one: the latest completion that actually
	// happened among reached processes.
	Completed []bool
	// NodesReached counts the processes holding the message at the end.
	NodesReached int
	// Retries counts link-layer redelivery attempts, Reparents counts
	// orphaned receivers re-parented onto a live holder, and Lost counts
	// permanently lost messages (retries exhausted or receiver crashed).
	Retries, Reparents, Lost int64
}

// ExecuteSchedule runs the inter-cluster schedule sc (plus per-cluster
// local broadcasts) for a message of m bytes on grid g. The schedule must
// be valid for the grid and message size.
func ExecuteSchedule(g *topology.Grid, sc *sched.Schedule, m int64, opt Options) (*Result, error) {
	prob, err := sched.NewProblem(g, sc.Root, m, sched.Options{IntraShape: opt.IntraShape, Overlap: opt.Overlap})
	if err != nil {
		return nil, err
	}
	if err := opt.Net.Validate(g.TotalNodes()); err != nil {
		return nil, err
	}
	if err := sc.Validate(prob); err != nil {
		return nil, fmt.Errorf("mpi: refusing invalid schedule: %w", err)
	}

	n := g.N()
	offsets := make([]int, n)
	clusterOf := make([]int, 0, g.TotalNodes())
	for c := 0; c < n; c++ {
		offsets[c] = len(clusterOf)
		for r := 0; r < g.Clusters[c].Nodes; r++ {
			clusterOf = append(clusterOf, c)
		}
	}
	link := func(from, to int) plogp.Params {
		cf, ct := clusterOf[from], clusterOf[to]
		if cf == ct {
			return g.Clusters[cf].Intra
		}
		return g.Inter[cf][ct]
	}
	env := sim.New()
	nw := vnet.New(env, len(clusterOf), link, opt.Net)

	// Group the schedule's transmissions by sender, keeping round order:
	// that is the order each coordinator works through its send list.
	sends := make([][]int, n) // destination cluster ids
	for _, ev := range sc.Events {
		sends[ev.From] = append(sends[ev.From], ev.To)
	}

	res := &Result{
		ClusterCompletion:  make([]float64, n),
		CoordinatorArrival: make([]float64, n),
		Completed:          make([]bool, n),
	}

	var ex *ftExec
	if opt.FT != nil || !opt.Net.Faults.Empty() {
		ex = newFTExec(env, nw, g, sc, offsets, m, opt, res)
		for c := 0; c < n; c++ {
			ex.startCluster(c, sends[c])
		}
	} else {
		for c := 0; c < n; c++ {
			startClusterProcesses(env, nw, g, c, c == sc.Root, offsets[c], sends[c], offsets, m, opt, res)
		}
	}
	if err := runEnv(env, opt.Ctx); err != nil {
		return nil, err
	}
	if live := env.Live(); live != 0 {
		env.Shutdown()
		return nil, fmt.Errorf("mpi: %d processes never completed (lost message?)", live)
	}
	if ex != nil {
		ex.finish()
	} else {
		for c := range res.Completed {
			res.Completed[c] = true
		}
		res.NodesReached = g.TotalNodes()
	}
	for _, comp := range res.ClusterCompletion {
		if comp > res.Makespan {
			res.Makespan = comp
		}
	}
	res.Messages, res.Bytes = nw.Messages, nw.Bytes
	res.Retries, res.Lost = nw.Redelivered, nw.Lost
	return res, nil
}

// startClusterProcesses spawns the coordinator and local node processes of
// one cluster.
func startClusterProcesses(env *sim.Env, nw *vnet.Network, g *topology.Grid, c int, isRoot bool,
	coord int, destinations []int, offsets []int, m int64, opt Options, res *Result) {

	cl := g.Clusters[c]
	var tree *intracluster.Tree
	arrivals := make([]float64, cl.Nodes)
	if cl.BcastTime == 0 && cl.Nodes > 1 {
		tree = intracluster.New(opt.IntraShape, cl.Nodes)
	}

	env.Process(fmt.Sprintf("coord-%s", cl.Name), func(p *sim.Proc) {
		if !isRoot {
			msg := nw.RecvMatch(p, coord, func(msg *vnet.Message) bool { return msg.Tag == TagInter })
			res.CoordinatorArrival[c] = msg.ArrivedAt
		}
		for _, dst := range destinations {
			nw.Send(p, coord, offsets[dst], m, TagInter, nil)
		}
		// Local broadcast: either the modelled fixed time (the paper's §6
		// Monte-Carlo clusters) or a real message-level tree.
		switch {
		case cl.BcastTime > 0:
			p.Wait(cl.BcastTime)
			res.ClusterCompletion[c] = p.Now()
		case cl.Nodes == 1:
			res.ClusterCompletion[c] = p.Now()
		default:
			arrivals[0] = p.Now()
			for _, child := range tree.Children[0] {
				nw.Send(p, coord, coord+child, m, TagIntra, nil)
			}
		}
	})

	if tree == nil {
		return
	}
	for r := 1; r < cl.Nodes; r++ {
		env.Process(fmt.Sprintf("%s-%d", cl.Name, r), func(p *sim.Proc) {
			msg := nw.RecvMatch(p, coord+r, func(msg *vnet.Message) bool { return msg.Tag == TagIntra })
			arrivals[r] = msg.ArrivedAt
			for _, child := range tree.Children[r] {
				nw.Send(p, coord+r, coord+child, m, TagIntra, nil)
			}
			// The last arrival in the cluster closes the local broadcast.
			if msg.ArrivedAt > res.ClusterCompletion[c] {
				res.ClusterCompletion[c] = msg.ArrivedAt
			}
		})
	}
}

// ExecuteBinomialGridUnaware runs the grid-unaware binomial broadcast (the
// paper's "Defaut LAM" baseline of Figure 6): one binomial tree over all
// processes in rank order, oblivious to cluster boundaries.
func ExecuteBinomialGridUnaware(g *topology.Grid, rootCluster int, m int64, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if rootCluster < 0 || rootCluster >= g.N() {
		return nil, fmt.Errorf("mpi: root cluster %d out of range", rootCluster)
	}
	if err := opt.Net.Validate(g.TotalNodes()); err != nil {
		return nil, err
	}
	layout := sched.Layout(g, rootCluster)
	link := func(from, to int) plogp.Params {
		cf, ct := layout[from].Cluster, layout[to].Cluster
		if cf == ct {
			return g.Clusters[cf].Intra
		}
		return g.Inter[cf][ct]
	}
	env := sim.New()
	nw := vnet.New(env, len(layout), link, opt.Net)
	tree := intracluster.New(intracluster.Binomial, len(layout))

	res := &Result{
		ClusterCompletion:  make([]float64, g.N()),
		CoordinatorArrival: make([]float64, g.N()),
		Completed:          make([]bool, g.N()),
	}
	record := func(rank int, at float64) {
		// Clusters modelled by an explicit BcastTime still pay their
		// local broadcast after their node receives the message.
		c := layout[rank].Cluster
		if bt := g.Clusters[c].BcastTime; bt > 0 {
			at += bt
		}
		if at > res.ClusterCompletion[c] {
			res.ClusterCompletion[c] = at
		}
		if at > res.Makespan {
			res.Makespan = at
		}
	}
	for rank := 0; rank < len(layout); rank++ {
		env.Process(fmt.Sprintf("rank-%d", rank), func(p *sim.Proc) {
			if rank != 0 {
				msg := nw.Recv(p, rank)
				record(rank, msg.ArrivedAt)
			} else {
				record(0, 0) // the root holds the message at t=0
			}
			for _, child := range tree.Children[rank] {
				nw.Send(p, rank, child, m, TagIntra, nil)
			}
		})
	}
	if err := runEnv(env, opt.Ctx); err != nil {
		return nil, err
	}
	if live := env.Live(); live != 0 {
		env.Shutdown()
		return nil, fmt.Errorf("mpi: %d processes never completed", live)
	}
	for c := range res.Completed {
		res.Completed[c] = true
	}
	res.NodesReached = g.TotalNodes()
	res.Messages, res.Bytes = nw.Messages, nw.Bytes
	return res, nil
}
