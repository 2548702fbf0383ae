package mpi

import (
	"os"
	"testing"

	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// These digests pin fault-free pipelined executions bit for bit. They were
// recorded when whole-message and pipelined plans still ran through two
// separate coordinator programs, so they show that running every plan
// through the one stream program changed no pipelined result.
//
// Re-record with GOLDEN_PRINT=1 go test -run TestGoldenPipelinedIdentity ./internal/mpi/
// only when a change is supposed to alter executed timing.
const (
	goldenPipelinedStrict   = "331a308aaa6f5a74"
	goldenPipelinedJittered = "798cf2c6556a091a"
	goldenPipelinedLocal    = "d022c1231a438bb1"
)

// TestGoldenPipelinedIdentity executes three fault-free pipelined plans —
// one on the ideal network, one jittered at 0.1 and one with streaming
// local phases on a clustered grid — and compares their digests.
func TestGoldenPipelinedIdentity(t *testing.T) {
	g := topology.Grid5000()
	ss := sched.ScheduleSegmented(sched.ECEFLAT(), sched.MustSegmentedProblem(g, 0, 4<<20, 256<<10, sched.Options{}))

	cg := topology.RandomClusteredGrid(stats.NewRand(23), 8)
	local := sched.ScheduleSegmented(sched.ECEFLAT(), sched.MustSegmentedProblem(cg, 2, 8<<20, 128<<10, sched.Options{SegmentedLocal: true}))
	if !local.LocalSeg {
		t.Fatal("the clustered plan streams no local phase")
	}

	for _, c := range []struct {
		name, want string
		g          *topology.Grid
		ss         *sched.SegmentedSchedule
		net        vnet.Config
	}{
		{"strict", goldenPipelinedStrict, g, ss, vnet.Config{}},
		{"jittered", goldenPipelinedJittered, g, ss, vnet.Config{Jitter: 0.1, Seed: 3}},
		{"segmented-local", goldenPipelinedLocal, cg, local, vnet.Config{}},
	} {
		res, err := ExecuteSegmentedSchedule(c.g, c.ss, Options{Net: c.net})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := goldenHash(res)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("%s = %q", c.name, got)
		}
		if got != c.want {
			t.Errorf("%s digest drifted: got %s, want %s (makespan %v, %d messages)",
				c.name, got, c.want, res.Makespan, res.Messages)
		}
	}
}
