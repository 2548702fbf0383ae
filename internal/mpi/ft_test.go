package mpi

import (
	"context"
	"math"
	"testing"

	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// coordEndpoint returns the vnet endpoint of cluster c's coordinator under
// the executor's rank layout.
func coordEndpoint(g *topology.Grid, c int) int {
	off := 0
	for i := 0; i < c; i++ {
		off += g.Clusters[i].Nodes
	}
	return off
}

// TestFTPathMatchesPredictionWithoutFaults pins the fault-tolerant receive
// path against the analytic model: with FT options set but no faults
// injected, every deadline is met and the measured makespan must still match
// the prediction exactly, with a fully-completed report.
func TestFTPathMatchesPredictionWithoutFaults(t *testing.T) {
	r := stats.NewRand(77)
	grids := []*topology.Grid{topology.Grid5000(), topology.RandomClusteredGrid(r, 6)}
	for _, g := range grids {
		p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
		for _, h := range sched.Paper() {
			sc := h.Schedule(p)
			res, err := ExecuteSchedule(g, sc, 1<<20, Options{FT: &FTOptions{}})
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if math.Abs(res.Makespan-sc.Makespan) > 1e-9 {
				t.Errorf("%s: FT measured %g != predicted %g", h.Name(), res.Makespan, sc.Makespan)
			}
			if res.NodesReached != g.TotalNodes() || res.Reparents != 0 {
				t.Errorf("%s: reached %d/%d, reparents %d", h.Name(),
					res.NodesReached, g.TotalNodes(), res.Reparents)
			}
			for c, done := range res.Completed {
				if !done {
					t.Errorf("%s: cluster %d not completed on fault-free run", h.Name(), c)
				}
			}
		}
	}
}

// TestCrashAfterRootFirstSendReparentsSubtree is the acceptance scenario:
// the coordinator of the root's first destination crashes while the root's
// first send is in flight. The broadcast must terminate without error, the
// crashed cluster's scheduled subtree must be re-parented onto live holders
// and complete, and the result must report the partial completion and a
// degraded makespan.
func TestCrashAfterRootFirstSendReparentsSubtree(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)

	victim := sc.Events[0].To
	forwards := 0
	for _, ev := range sc.Events {
		if ev.From == victim {
			forwards++
		}
	}
	if forwards == 0 {
		t.Fatalf("scenario needs the first destination (cluster %d) to forward; pick another grid", victim)
	}

	// The crash lands after the root started sending (t=0) but before the
	// message reaches the victim, so the victim never holds the message.
	crashAt := sc.RT[victim] * 0.5
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Crashes: []vnet.Crash{{Node: coordEndpoint(g, victim), At: crashAt}},
	}}}
	res, err := ExecuteSchedule(g, sc, 1<<20, opt)
	if err != nil {
		t.Fatalf("degraded execution errored: %v", err)
	}
	if res.Completed[victim] {
		t.Error("crashed cluster reported completed")
	}
	for c, done := range res.Completed {
		if c != victim && !done {
			t.Errorf("cluster %d orphaned by the crash did not complete", c)
		}
	}
	if res.Reparents < int64(forwards) {
		t.Errorf("reparents = %d, want >= %d (victim's subtree)", res.Reparents, forwards)
	}
	if res.Lost == 0 {
		t.Error("the send into the crashed cluster should be counted lost")
	}
	if res.NodesReached != g.TotalNodes()-g.Clusters[victim].Nodes {
		t.Errorf("reached %d, want %d", res.NodesReached, g.TotalNodes()-g.Clusters[victim].Nodes)
	}
	if res.Makespan <= sc.Makespan {
		t.Errorf("degraded makespan %g not above predicted %g", res.Makespan, sc.Makespan)
	}
	// Determinism: the same fault plan replays to the same outcome.
	res2, err := ExecuteSchedule(g, sc, 1<<20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != res.Makespan || res2.Reparents != res.Reparents || res2.Lost != res.Lost {
		t.Errorf("fault scenario not reproducible: (%g,%d,%d) vs (%g,%d,%d)",
			res.Makespan, res.Reparents, res.Lost, res2.Makespan, res2.Reparents, res2.Lost)
	}
}

// TestLossRedeliveryIsTransparent: drops below the retry budget delay the
// message but the link layer redelivers, so the broadcast completes without
// orphan repairs.
func TestLossRedeliveryIsTransparent(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	first := sc.Events[0].To
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Loss: []vnet.Loss{{From: coordEndpoint(g, sc.Root), To: coordEndpoint(g, first), Drops: 2}},
	}}}
	res, err := ExecuteSchedule(g, sc, 1<<20, opt)
	if err != nil {
		t.Fatal(err)
	}
	for c, done := range res.Completed {
		if !done {
			t.Errorf("cluster %d incomplete under recoverable loss", c)
		}
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want 2", res.Retries)
	}
	if res.Makespan < sc.Makespan {
		t.Errorf("lossy makespan %g below prediction %g", res.Makespan, sc.Makespan)
	}
}

// TestPermanentLossTriggersReparent: a message that exhausts its redelivery
// budget is gone for good; the orphaned coordinator must re-parent and the
// broadcast still completes everywhere.
func TestPermanentLossTriggersReparent(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	first := sc.Events[0].To
	// Exactly one message's budget (original + DefaultMaxRetries): the
	// repair retransmission on the same link then goes through.
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Loss: []vnet.Loss{{
			From:  coordEndpoint(g, sc.Root),
			To:    coordEndpoint(g, first),
			Drops: vnet.DefaultMaxRetries + 1,
		}},
	}}}
	res, err := ExecuteSchedule(g, sc, 1<<20, opt)
	if err != nil {
		t.Fatal(err)
	}
	for c, done := range res.Completed {
		if !done {
			t.Errorf("cluster %d incomplete after repair", c)
		}
	}
	if res.Lost != 1 {
		t.Errorf("lost = %d, want 1", res.Lost)
	}
	if res.Reparents == 0 {
		t.Error("permanent loss produced no reparent")
	}
	if res.NodesReached != g.TotalNodes() {
		t.Errorf("reached %d, want %d", res.NodesReached, g.TotalNodes())
	}
}

// TestDegradeDriftStillCompletes: a drifted (slower) link stretches arrivals
// past their deadlines but the executor must still deliver everywhere.
func TestDegradeDriftStillCompletes(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	first := sc.Events[0].To
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Degrade: []vnet.Degrade{{
			From: coordEndpoint(g, sc.Root), To: coordEndpoint(g, first),
			GapScale: 4, LatScale: 4,
		}},
	}}}
	res, err := ExecuteSchedule(g, sc, 1<<20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesReached != g.TotalNodes() {
		t.Errorf("reached %d, want %d", res.NodesReached, g.TotalNodes())
	}
	if res.Makespan <= sc.Makespan {
		t.Errorf("drifted makespan %g not above prediction %g", res.Makespan, sc.Makespan)
	}
}

// TestExecuteCancelled: a cancelled context aborts the simulation with the
// context's error on all executors.
func TestExecuteCancelled(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteSchedule(g, sc, 1<<20, Options{Ctx: ctx}); err != context.Canceled {
		t.Errorf("ExecuteSchedule err = %v, want context.Canceled", err)
	}
	if _, err := ExecuteBinomialGridUnaware(g, 0, 1<<20, Options{Ctx: ctx}); err != context.Canceled {
		t.Errorf("ExecuteBinomialGridUnaware err = %v, want context.Canceled", err)
	}
}

// TestSegmentedRejectsLossAndCrashFaults: the segment-streaming executor has
// no recovery protocol, so loss/crash plans are refused up front (degradation
// is allowed).
func TestSegmentedRejectsLossAndCrashFaults(t *testing.T) {
	g := topology.Grid5000()
	ss, err := sched.Pipelined{Base: sched.ECEFLAT()}.BestContext(context.Background(), sched.NewEnginePool(), g, 0, 1<<20, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Loss: []vnet.Loss{{From: 0, To: 1, Drops: 1}},
	}}}
	if _, err := ExecuteSegmentedSchedule(g, ss, bad); err == nil {
		t.Error("segmented executor accepted a loss fault plan")
	}
}

// TestExecuteScheduleRejectsInvalidNet: network configuration errors surface
// as errors, not panics.
func TestExecuteScheduleRejectsInvalidNet(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	if _, err := ExecuteSchedule(g, sc, 1<<20, Options{Net: vnet.Config{Jitter: 0.1}}); err == nil {
		t.Error("jitter without seed accepted")
	}
	badCrash := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Crashes: []vnet.Crash{{Node: g.TotalNodes() + 5}},
	}}}
	if _, err := ExecuteSchedule(g, sc, 1<<20, badCrash); err == nil {
		t.Error("out-of-range crash node accepted")
	}
}
