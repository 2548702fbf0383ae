package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// idleWorkers reports the length of the shared free list.
func idleWorkers() int {
	workers.Lock()
	defer workers.Unlock()
	return len(workers.idle)
}

func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := New()
	ch := NewChan[int](e)
	e.Process("bystander", func(p *Proc) { ch.Recv(p) })
	e.Process("buggy", func(p *Proc) {
		p.Wait(1)
		panic("boom")
	})
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Run()
		return "Run returned normally"
	}()
	if !strings.HasPrefix(msg, `sim: process "buggy" panicked: boom`) {
		t.Fatalf("Run panic = %q, want it to name the process and its value", msg)
	}
	if e.Live() != 1 {
		t.Fatalf("live after panic = %d, want only the bystander", e.Live())
	}
	e.Shutdown() // hands the bystander's worker back
	if e.Live() != 0 {
		t.Fatalf("live after shutdown = %d", e.Live())
	}

	// The pool survives the dead worker: the next Env runs on it.
	next := New()
	var got []int
	ping := NewChan[int](next)
	for i := 0; i < 4; i++ {
		next.Process("sender", func(p *Proc) {
			p.Wait(float64(i))
			ping.Send(i)
		})
	}
	next.Process("receiver", func(p *Proc) {
		for range 4 {
			got = append(got, ping.Recv(p))
		}
	})
	if end := next.Run(); end != 3 {
		t.Errorf("next Env ended at %g, want 3", end)
	}
	if fmt.Sprint(got) != "[0 1 2 3]" || next.Live() != 0 {
		t.Errorf("next Env got %v with %d live, want [0 1 2 3] and 0", got, next.Live())
	}
	if idleWorkers() == 0 {
		t.Error("finished processes did not hand their workers back")
	}
}

// spawnStuck starts one process in each state Kill and Shutdown must
// unwind: never started, blocked in Recv, and parked in RecvUntil. The
// never-started one is killed by a callback that runs before its start
// event.
func spawnStuck(t *testing.T, e *Env, ch *Chan[int]) (never, recv, until *Proc) {
	e.Schedule(0, func() { e.Kill(never) })
	never = e.Process("never", func(p *Proc) { t.Error("killed process started") })
	recv = e.Process("recv", func(p *Proc) {
		ch.Recv(p)
		t.Error("killed Recv returned")
	})
	until = e.Process("until", func(p *Proc) {
		ch.RecvUntil(p, 100)
		t.Error("killed RecvUntil returned")
	})
	return never, recv, until
}

func TestKillAndShutdownReturnWorkers(t *testing.T) {
	start := runtime.NumGoroutine()
	for i := 0; i < 300; i++ {
		e := New()
		ch := NewChan[int](e)
		var stuck []*Proc
		for range 10 {
			never, recv, until := spawnStuck(t, e, ch)
			stuck = append(stuck, never, recv, until)
		}
		if i%2 == 0 {
			// Kill each from kernel context while it is parked; the
			// RecvUntil timers still pop at t=100, harmlessly.
			e.Schedule(1, func() {
				for _, p := range stuck {
					e.Kill(p)
				}
			})
			if end := e.Run(); end != 100 {
				t.Fatalf("env %d ended at %g, want 100", i, end)
			}
		} else {
			e.RunUntil(1)
			e.Shutdown()
		}
		if e.Live() != 0 {
			t.Fatalf("env %d: live = %d after kill/shutdown", i, e.Live())
		}
	}
	if n := idleWorkers(); n > maxIdleWorkers {
		t.Fatalf("idle workers = %d, above the cap %d", n, maxIdleWorkers)
	}
	if grown := runtime.NumGoroutine() - start; grown > maxIdleWorkers {
		t.Fatalf("goroutines grew by %d, more than the idle cap %d", grown, maxIdleWorkers)
	}

	// More processes than the cap are parked at once, so releasing them
	// must stop the surplus workers rather than leak them.
	const over = 100
	before, idleBefore := runtime.NumGoroutine(), idleWorkers()
	e := New()
	ch := NewChan[int](e)
	for range maxIdleWorkers + over {
		e.Process("blocked", func(p *Proc) { ch.Recv(p) })
	}
	e.Run()
	if e.Live() != maxIdleWorkers+over {
		t.Fatalf("live = %d, want %d blocked", e.Live(), maxIdleWorkers+over)
	}
	e.Shutdown()
	if n := idleWorkers(); n != maxIdleWorkers {
		t.Errorf("idle workers = %d after the over-cap release, want the cap %d", n, maxIdleWorkers)
	}
	if grown, kept := runtime.NumGoroutine()-before, maxIdleWorkers-idleBefore; grown > kept {
		t.Errorf("goroutines grew by %d, want at most %d: surplus workers were not stopped", grown, kept)
	}
}
