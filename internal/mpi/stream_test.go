package mpi

import (
	"math"
	"strings"
	"testing"

	"gridbcast/internal/sched"
	"gridbcast/internal/sim"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// pipelinedGrid5000 is the pipelined plan the faulted-stream tests run:
// ECEF-LAT from cluster 0 on GRID5000, 4 MiB in segments of segSize, with
// streaming local phases where the model prefers them.
func pipelinedGrid5000(t *testing.T, segSize int64) (*topology.Grid, *sched.SegmentedSchedule) {
	t.Helper()
	g := topology.Grid5000()
	ss := sched.ScheduleSegmented(sched.ECEFLAT(), sched.MustSegmentedProblem(g, 0, 4<<20, segSize, sched.Options{SegmentedLocal: true}))
	if ss.K < 2 {
		t.Fatalf("plan has %d segments, want a stream", ss.K)
	}
	return g, ss
}

// checkAllReached fails unless every node of g holds the message.
func checkAllReached(t *testing.T, g *topology.Grid, res *Result) {
	t.Helper()
	if res.NodesReached != g.TotalNodes() {
		t.Errorf("reached %d of %d nodes", res.NodesReached, g.TotalNodes())
	}
	for c, done := range res.Completed {
		if !done {
			t.Errorf("cluster %d incomplete", c)
		}
	}
}

// TestReorderedSegmentsAreReassembled: at 4 KiB segments a jitter of 0.2
// delivers segments out of order, at coordinators and at the local nodes
// of streaming clusters. Receivers take the next segment they miss, so
// every run reaches every node with exactly the fault-free traffic.
func TestReorderedSegmentsAreReassembled(t *testing.T) {
	g := topology.Grid5000()
	ss := sched.ScheduleSegmented(sched.ECEFLAT(), sched.MustSegmentedProblem(g, 0, 1<<20, 4<<10, sched.Options{SegmentedLocal: true}))
	streamed := 0
	for _, on := range ss.LocalSegmented {
		if on {
			streamed++
		}
	}
	if streamed == 0 {
		t.Fatal("no cluster streams its local phase")
	}
	strict, err := ExecuteSegmentedSchedule(g, ss, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		res, err := ExecuteSegmentedSchedule(g, ss, Options{Net: vnet.Config{Jitter: 0.2, Seed: seed}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAllReached(t, g, res)
		if res.Messages != strict.Messages || res.Bytes != strict.Bytes {
			t.Errorf("seed %d: %d messages / %d bytes, fault-free run %d / %d",
				seed, res.Messages, res.Bytes, strict.Messages, strict.Bytes)
		}
	}
}

// TestStreamStampsLatestArrival: a coordinator sent segments 2, 0, 1, in
// that order, holds the message when segment 1 lands, not when the last
// segment does; armed or not, its arrival and completion are stamped then.
func TestStreamStampsLatestArrival(t *testing.T) {
	g := topology.Grid5000()
	const size = 64 << 10
	for _, armed := range []bool{false, true} {
		var held float64
		res, err := run(g, sched.Layout(g, 0), Options{}, "", func(w *world) func() {
			ps := parts{3, size, size}
			ex := &streamExec{world: w, stream: stream{wide: ps}}
			if armed {
				ex.have = make([]bool, len(w.layout))
			}
			from, to := w.offsets[0], w.offsets[1]
			w.env.Spawn(from, func(p *sim.Proc) {
				for _, q := range []int{2, 0, 1} {
					w.nw.SendSeg(p, from, to, size, q, TagInter, nil)
				}
			}, w.procName)
			w.env.Spawn(to, func(p *sim.Proc) {
				rv := receiver{e: to, tag: TagInter, ps: ps, deadline: math.Inf(1)}
				if !ex.recvThrough(p, &rv, ps.n-1) {
					t.Error("receiver gave up")
				}
				held = p.Now()
			}, w.procName)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CoordinatorArrival[1] != held || res.ClusterCompletion[1] != held {
			t.Errorf("armed %v: arrival %g, completion %g; the last segment needed landed at %g",
				armed, res.CoordinatorArrival[1], res.ClusterCompletion[1], held)
		}
	}
}

// TestPipelinedLossRedelivery: two lost attempts of the first segment on
// the root's first link are redelivered by the link layer. At 16 KiB the
// segments behind it overtake it and wait; the run reaches every node with
// no repair.
func TestPipelinedLossRedelivery(t *testing.T) {
	g, ss := pipelinedGrid5000(t, 16<<10)
	first := ss.Events[0]
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Loss: []vnet.Loss{{From: coordEndpoint(g, first.From), To: coordEndpoint(g, first.To), Drops: 2}},
	}}}
	res, err := ExecuteSegmentedSchedule(g, ss, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkAllReached(t, g, res)
	if res.Retries != 2 || res.Lost != 0 || res.Reparents != 0 {
		t.Errorf("retries %d, lost %d, reparents %d; want 2, 0, 0", res.Retries, res.Lost, res.Reparents)
	}
	if res.Makespan < ss.Makespan {
		t.Errorf("lossy makespan %g below prediction %g", res.Makespan, ss.Makespan)
	}
}

// TestPipelinedPermanentSegmentLoss: the first segment on the root's first
// link exhausts its redeliveries. Its receiver holds every later segment
// but not that one; when its deadline passes it re-parents, the repair
// resends the stream from the missing segment on, and every node is
// reached.
func TestPipelinedPermanentSegmentLoss(t *testing.T) {
	g, ss := pipelinedGrid5000(t, 256<<10)
	first := ss.Events[0]
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Loss: []vnet.Loss{{
			From:  coordEndpoint(g, first.From),
			To:    coordEndpoint(g, first.To),
			Drops: vnet.DefaultMaxRetries + 1,
		}},
	}}}
	res, err := ExecuteSegmentedSchedule(g, ss, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkAllReached(t, g, res)
	if res.Lost != 1 || res.Retries != vnet.DefaultMaxRetries {
		t.Errorf("lost %d, retries %d; want 1, %d", res.Lost, res.Retries, vnet.DefaultMaxRetries)
	}
	if res.Reparents == 0 {
		t.Error("a permanently lost segment produced no reparent")
	}
	// The receiver's later segments arrived on time; it holds the message
	// only once the repaired first segment lands, past its deadline.
	if deadline := ss.RT[first.To] + max(ftSlack*ss.Makespan, ftMinSlack); res.CoordinatorArrival[first.To] <= deadline {
		t.Errorf("coordinator %d stamped at %g, before its repair could land (deadline %g)",
			first.To, res.CoordinatorArrival[first.To], deadline)
	}
	if res.Makespan <= ss.Makespan {
		t.Errorf("repaired makespan %g not above prediction %g", res.Makespan, ss.Makespan)
	}
}

// TestPipelinedCoordinatorCrashMidStream: a forwarding coordinator dies
// halfway between receiving its first and its last segment. The run
// terminates; its cluster reports incomplete, and the clusters it fed
// re-parent and complete.
func TestPipelinedCoordinatorCrashMidStream(t *testing.T) {
	g, ss := pipelinedGrid5000(t, 256<<10)
	victim := ss.Events[0].To
	forwards := 0
	for _, ev := range ss.Events {
		if ev.From == victim {
			forwards++
		}
	}
	if forwards == 0 {
		t.Fatalf("cluster %d forwards nothing; pick another plan", victim)
	}
	crashAt := (ss.FirstRT[victim] + ss.RT[victim]) / 2
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Crashes: []vnet.Crash{{Node: coordEndpoint(g, victim), At: crashAt}},
	}}}
	res, err := ExecuteSegmentedSchedule(g, ss, opt)
	if err != nil {
		t.Fatalf("degraded execution errored: %v", err)
	}
	if res.Completed[victim] {
		t.Error("crashed cluster reported completed")
	}
	for c, done := range res.Completed {
		if c != victim && !done {
			t.Errorf("cluster %d, fed by the crashed one or not, did not complete", c)
		}
	}
	if want := g.TotalNodes() - g.Clusters[victim].Nodes; res.NodesReached != want {
		t.Errorf("reached %d, want %d", res.NodesReached, want)
	}
	if res.Reparents < int64(forwards) || res.Lost == 0 {
		t.Errorf("reparents %d (want >= %d), lost %d (want > 0)", res.Reparents, forwards, res.Lost)
	}
	again, err := ExecuteSegmentedSchedule(g, ss, opt)
	if err != nil {
		t.Fatal(err)
	}
	if goldenHash(again) != goldenHash(res) {
		t.Error("the crash scenario does not replay identically")
	}
}

// FuzzStreamExecution runs small grids, one to sixteen segments, under a
// drawn Degrade/Loss/Crash plan and jitter. A run never panics, ends with
// a result or the "never completed" error, never reports more nodes than
// the grid has, and without faults or jitter measures its prediction.
func FuzzStreamExecution(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(2), uint8(15), uint8(7), uint8(200), uint8(1))
	f.Add(int64(42), uint8(5), uint8(0), uint8(5), uint8(90), uint8(3))
	f.Add(int64(-3), uint8(1), uint8(8), uint8(2), uint8(17), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n8, k8, faults, knob, jit8 uint8) {
		r := stats.NewRand(seed)
		n := 2 + int(n8%5)
		g := topology.RandomClusteredGrid(r, n)
		if faults&8 != 0 {
			g = topology.RandomSizedGrid(r, n)
		}
		root := r.Intn(n)
		const m = 1 << 20
		k := 1 + int(k8%16)
		sp, err := sched.NewSegmentedProblem(g, root, m, (m+int64(k)-1)/int64(k), sched.Options{SegmentedLocal: faults&16 != 0})
		if err != nil {
			t.Fatal(err)
		}
		ss := sched.ScheduleSegmented(sched.ECEFLAT(), sp)

		fp := &vnet.FaultPlan{}
		ev := ss.Events[int(knob)%len(ss.Events)]
		from, to := coordEndpoint(g, ev.From), coordEndpoint(g, ev.To)
		if faults&1 != 0 {
			scale := 1 + float64(knob%8)
			fp.Degrade = []vnet.Degrade{{From: from, To: to, GapScale: scale, LatScale: scale}}
		}
		if faults&2 != 0 {
			fp.Loss = []vnet.Loss{{From: from, To: to, Drops: 1 + int(knob%9)}}
		}
		if faults&4 != 0 {
			node := r.Intn(g.TotalNodes())
			fp.Crashes = []vnet.Crash{{Node: node, At: float64(knob) / 255 * ss.Makespan}}
		}
		net := vnet.Config{Faults: fp}
		if j := float64(jit8%4) / 10; j > 0 {
			net.Jitter, net.Seed = j, seed|1
		}

		var res *Result
		if k == 1 && faults&32 != 0 {
			sc := sched.ECEFLAT().Schedule(sp.Problem)
			res, err = ExecuteSchedule(g, sc, m, Options{Net: net})
		} else {
			res, err = ExecuteSegmentedSchedule(g, ss, Options{Net: net})
		}
		if err != nil {
			if !strings.Contains(err.Error(), "never completed") {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if res.NodesReached > g.TotalNodes() {
			t.Fatalf("reached %d of %d nodes", res.NodesReached, g.TotalNodes())
		}
		if fp.Empty() && net.Jitter == 0 {
			if res.NodesReached != g.TotalNodes() {
				t.Fatalf("fault-free run reached %d of %d nodes", res.NodesReached, g.TotalNodes())
			}
			if math.Abs(res.Makespan-ss.Makespan) > segTol {
				t.Fatalf("K=%d: measured %g != predicted %g", ss.K, res.Makespan, ss.Makespan)
			}
		}
	})
}
