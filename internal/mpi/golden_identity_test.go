package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"gridbcast/internal/sched"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// These golden digests pin the exact byte-level behaviour of the executor —
// every float64 a run produces, bit for bit — across internal refactors of
// the simulation kernel. They were recorded on the pre-generics kernel
// (boxed `any` channel payloads); the typed-channel migration must not move
// a single bit, in particular through sim.Chan.RecvUntil's deadline path
// (FT receive timeouts) and the orphan-repair out-of-band send channel.
//
// Re-record with GOLDEN_PRINT=1 go test -run TestGoldenByteIdentity ./internal/mpi/
// only when a change is *supposed* to alter executed timing.
const (
	goldenFaultFreeFT      = "2fd1fadfa57a4dd0"
	goldenFaulted          = "06e0eb806746106f"
	goldenFaultedPipelined = "6f1376e5ad2f8673"
)

// goldenHash folds a Result into a digest that is sensitive to every bit of
// every field, including ordering of the per-cluster slices.
func goldenHash(res *Result) string {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f := func(v float64) { u64(math.Float64bits(v)) }
	f(res.Makespan)
	for _, v := range res.ClusterCompletion {
		f(v)
	}
	for _, v := range res.CoordinatorArrival {
		f(v)
	}
	u64(uint64(res.Messages))
	u64(uint64(res.Bytes))
	for _, c := range res.Completed {
		if c {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(uint64(res.NodesReached))
	u64(uint64(res.Retries))
	u64(uint64(res.Reparents))
	u64(uint64(res.Lost))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenScenarios builds the two pinned runs: the fault-free FT path (every
// receive deadline armed, none fired) and a faulted run that exercises the
// full repair machinery — a crashed coordinator (orphan re-parenting), a
// lossy link (bounded redelivery backoff), and a degraded link (late
// deliveries past their deadline).
func goldenScenarios(t *testing.T) (faultFree, faulted *Result) {
	t.Helper()
	faultFree, faulted, err := goldenRuns()
	if err != nil {
		t.Fatal(err)
	}
	return faultFree, faulted
}

// goldenRuns executes the two pinned runs; it reports errors instead of
// failing a test so that it can run off the test goroutine.
func goldenRuns() (faultFree, faulted *Result, err error) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)

	faultFree, err = ExecuteSchedule(g, sc, 1<<20, armedFT())
	if err != nil {
		return nil, nil, fmt.Errorf("fault-free FT run: %v", err)
	}

	victim := sc.Events[0].To
	crashAt := sc.RT[victim] * 0.5
	lossy := sc.Events[1]
	degraded := sc.Events[len(sc.Events)-1]
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Crashes: []vnet.Crash{{Node: coordEndpoint(g, victim), At: crashAt}},
		Loss: []vnet.Loss{{
			From: coordEndpoint(g, lossy.From), To: coordEndpoint(g, lossy.To),
			After: 0, Drops: 2,
		}},
		Degrade: []vnet.Degrade{{
			From: coordEndpoint(g, degraded.From), To: coordEndpoint(g, degraded.To),
			After: 0, GapScale: 1.5, LatScale: 4,
		}},
	}}}
	faulted, err = ExecuteSchedule(g, sc, 1<<20, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("faulted run: %v", err)
	}
	return faultFree, faulted, nil
}

// goldenFaultedPipelinedRun executes the faulted scenario of goldenRuns on
// a pipelined plan with streaming local phases (4 MiB in 256 KiB segments).
// The crash lands halfway through the victim's stream, so its destinations
// re-parent holding part of it. The lossy link, the first one a live
// coordinator sends on after the victim's, loses one segment for good and
// delays the next, so its receiver holds the later segments early and the
// message only once a repair fills the gap.
func goldenFaultedPipelinedRun() (*Result, error) {
	g := topology.Grid5000()
	ss := sched.ScheduleSegmented(sched.ECEFLAT(), sched.MustSegmentedProblem(g, 0, 4<<20, 256<<10, sched.Options{SegmentedLocal: true}))
	victim := ss.Events[0].To
	lossy := ss.Events[1]
	for _, ev := range ss.Events[1:] {
		if ev.From != victim {
			lossy = ev
			break
		}
	}
	degraded := ss.Events[len(ss.Events)-1]
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{
		Crashes: []vnet.Crash{{Node: coordEndpoint(g, victim), At: (ss.FirstRT[victim] + ss.RT[victim]) / 2}},
		Loss: []vnet.Loss{{
			From: coordEndpoint(g, lossy.From), To: coordEndpoint(g, lossy.To),
			After: 0, Drops: 6,
		}},
		Degrade: []vnet.Degrade{{
			From: coordEndpoint(g, degraded.From), To: coordEndpoint(g, degraded.To),
			After: 0, GapScale: 1.5, LatScale: 4,
		}},
	}}}
	res, err := ExecuteSegmentedSchedule(g, ss, opt)
	if err != nil {
		return nil, fmt.Errorf("faulted pipelined run: %v", err)
	}
	return res, nil
}

// TestGoldenFaultedPipelined pins the faulted pipelined run to its
// recorded digest.
func TestGoldenFaultedPipelined(t *testing.T) {
	res, err := goldenFaultedPipelinedRun()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenHash(res)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("goldenFaultedPipelined = %q", got)
	}
	if got != goldenFaultedPipelined {
		t.Errorf("faulted pipelined digest drifted: got %s, want %s\n"+
			"makespan=%v reached=%d retries=%d reparents=%d lost=%d",
			got, goldenFaultedPipelined,
			res.Makespan, res.NodesReached, res.Retries, res.Reparents, res.Lost)
	}
}

// TestGoldenByteIdentity pins both runs to their recorded digests. Any bit
// of drift in any produced float64 fails this test.
func TestGoldenByteIdentity(t *testing.T) {
	faultFree, faulted := goldenScenarios(t)
	gotFree, gotFaulted := goldenHash(faultFree), goldenHash(faulted)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("goldenFaultFreeFT = %q", gotFree)
		t.Logf("goldenFaulted     = %q", gotFaulted)
	}
	if gotFree != goldenFaultFreeFT {
		t.Errorf("fault-free FT digest drifted: got %s, want %s\n"+
			"makespan=%v retries=%d reparents=%d lost=%d",
			gotFree, goldenFaultFreeFT,
			faultFree.Makespan, faultFree.Retries, faultFree.Reparents, faultFree.Lost)
	}
	if gotFaulted != goldenFaulted {
		t.Errorf("faulted digest drifted: got %s, want %s\n"+
			"makespan=%v reached=%d retries=%d reparents=%d lost=%d",
			gotFaulted, goldenFaulted,
			faulted.Makespan, faulted.NodesReached, faulted.Retries, faulted.Reparents, faulted.Lost)
	}
}

// TestGoldenByteIdentitySharedPool executes the golden runs (the faulted
// pipelined one included) from several goroutines at once at GOMAXPROCS 4.
// Their Envs then share the sim kernel's pool of coroutine workers, handing
// workers between goroutines mid-sweep; every run must still reproduce the
// recorded digests. Run it under -race to check the pool's hand-offs.
func TestGoldenByteIdentitySharedPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const goroutines, rounds = 6, 3
	errs := make(chan error, goroutines*rounds)
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				faultFree, faulted, err := goldenRuns()
				if err != nil {
					errs <- err
					continue
				}
				pipelined, err := goldenFaultedPipelinedRun()
				switch {
				case err != nil:
					errs <- err
				case goldenHash(faultFree) != goldenFaultFreeFT:
					errs <- fmt.Errorf("fault-free FT digest drifted: got %s, want %s", goldenHash(faultFree), goldenFaultFreeFT)
				case goldenHash(faulted) != goldenFaulted:
					errs <- fmt.Errorf("faulted digest drifted: got %s, want %s", goldenHash(faulted), goldenFaulted)
				case goldenHash(pipelined) != goldenFaultedPipelined:
					errs <- fmt.Errorf("faulted pipelined digest drifted: got %s, want %s", goldenHash(pipelined), goldenFaultedPipelined)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
