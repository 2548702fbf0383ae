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
	// Net configures network non-idealities (jitter, software overhead,
	// faults). The zero value reproduces analytic predictions exactly; a
	// non-empty Net.Faults plan arms the receive deadlines and repairs of
	// every scheduled execution (see stream.go).
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
	return execute(g, stream{
		root: sc.Root, wide: parts{1, m, m}, m: m, sends: sendLists(g.N(), sc.Events),
		rt: sc.RT, completion: sc.Completion, makespan: sc.Makespan,
	}, opt, " (lost message?)")
}

// ExecuteSegmentedSchedule runs the pipelined inter-cluster schedule ss
// (plus per-cluster local broadcasts, streamed where the schedule says so)
// on grid g. The schedule must be valid for the grid, message size and
// segmentation.
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
	st := stream{
		root: ss.Root, wide: parts{sp.K, sp.SegSize, sp.LastSize}, m: ss.MsgSize, sends: sendLists(g.N(), ss.Events),
		rt: ss.RT, completion: ss.Completion, makespan: ss.Makespan,
	}
	if ss.LocalSeg {
		st.localSeg = ss.LocalSegmented
	}
	return execute(g, st, opt, " (lost segment?)")
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
	return run(g, layout, opt, "", func(w *world) func() {
		record := func(rank int, at float64) {
			// Clusters modelled by an explicit BcastTime still pay their
			// local broadcast after their node receives the message.
			c := layout[rank].Cluster
			if bt := g.Clusters[c].BcastTime; bt > 0 {
				at += bt
			}
			if at > w.res.ClusterCompletion[c] {
				w.res.ClusterCompletion[c] = at
			}
		}
		body := func(p *sim.Proc) {
			rank := p.ID()
			if rank != 0 {
				msg := w.nw.Recv(p, rank)
				record(rank, msg.ArrivedAt)
			} else {
				record(0, 0) // the root holds the message at t=0
			}
			var kids [64]int
			for _, child := range intracluster.Binomial.AppendChildren(kids[:0], len(layout), rank) {
				w.nw.Send(p, rank, child, m, TagIntra, nil)
			}
		}
		name := func(rank int) string { return fmt.Sprintf("rank-%d", rank) }
		for rank := range layout {
			w.env.Spawn(rank, body, name)
		}
		return nil
	})
}

// world is the simulated machine set of one execution: the kernel, the
// network, the place of each endpoint, the endpoint of each cluster's
// coordinator (its local rank 0) and the result the processes fill in.
type world struct {
	g       *topology.Grid
	env     *sim.Env
	nw      *vnet.Network
	layout  []sched.NodePlace
	offsets []int
	res     *Result
}

// procName names the process of endpoint id (the id the executors spawn
// it with): coord-<cluster> for a coordinator, <cluster>-<rank> for a local
// node. The kernel calls it only when a name is read.
func (w *world) procName(id int) string {
	np := w.layout[id]
	name := w.g.Clusters[np.Cluster].Name
	if np.Rank == 0 {
		return "coord-" + name
	}
	return fmt.Sprintf("%s-%d", name, np.Rank)
}

// spawnNodes starts body on every cluster's coordinator and, where the
// local phase is a real tree (no modelled BcastTime), on its local nodes,
// in cluster order. Each process's id is its endpoint, and it is bound to
// that endpoint so a crash fault can kill it.
func (w *world) spawnNodes(body func(p *sim.Proc)) {
	name := w.procName
	for c, cl := range w.g.Clusters {
		coord := w.offsets[c]
		w.nw.Bind(coord, w.env.Spawn(coord, body, name))
		if cl.BcastTime > 0 {
			continue
		}
		for r := 1; r < cl.Nodes; r++ {
			w.nw.Bind(coord+r, w.env.Spawn(coord+r, body, name))
		}
	}
}

// run is the scaffold every executor shares. Endpoint i of the network is
// process layout[i]; spawn starts the processes (at most one per endpoint,
// which is what the kernel's and network's buffers are sized for) and
// returns the completion report to apply after the run (nil: every node
// was reached). A run that ends with processes still blocked fails, the
// error naming their count and the executor's stuck suffix. The makespan
// is the latest cluster completion.
func run(g *topology.Grid, layout []sched.NodePlace, opt Options, stuck string,
	spawn func(w *world) (finish func())) (*Result, error) {

	n := g.N()
	w := &world{g: g, env: sim.New(), layout: layout, offsets: make([]int, n), res: &Result{
		ClusterCompletion:  make([]float64, n),
		CoordinatorArrival: make([]float64, n),
		Completed:          make([]bool, n),
	}}
	for i, np := range layout {
		if np.Rank == 0 {
			w.offsets[np.Cluster] = i
		}
	}
	link := func(from, to int) plogp.Params {
		cf, ct := layout[from].Cluster, layout[to].Cluster
		if cf == ct {
			return g.Clusters[cf].Intra
		}
		return g.Inter[cf][ct]
	}
	w.env.Grow(len(layout))
	w.nw = vnet.New(w.env, len(layout), link, opt.Net)

	finish := spawn(w)
	if err := runEnv(w.env, opt.Ctx); err != nil {
		return nil, err
	}
	if live := w.env.Live(); live != 0 {
		w.env.Shutdown()
		return nil, fmt.Errorf("mpi: %d processes never completed%s", live, stuck)
	}
	res := w.res
	if finish != nil {
		finish()
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
	res.Messages, res.Bytes = w.nw.Messages, w.nw.Bytes
	res.Retries, res.Lost = w.nw.Redelivered, w.nw.Lost
	return res, nil
}

// runEnv pumps the simulation, honouring an optional cancellation context.
func runEnv(env *sim.Env, ctx context.Context) error {
	if ctx == nil {
		env.Run()
		return nil
	}
	_, err := env.RunCtx(ctx, 0)
	return err
}

// sendLists groups a schedule's transmissions by sender, keeping round
// order: that is the order each coordinator works through its
// destinations.
func sendLists(n int, events []sched.Event) [][]int {
	sends := make([][]int, n)
	for _, ev := range events {
		sends[ev.From] = append(sends[ev.From], ev.To)
	}
	return sends
}
