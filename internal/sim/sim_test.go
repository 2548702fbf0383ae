package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSingleProcessWait(t *testing.T) {
	e := New()
	var at []float64
	e.Process("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Wait(1.5)
		at = append(at, p.Now())
		p.Wait(0)
		at = append(at, p.Now())
	})
	end := e.Run()
	want := []float64{0, 1.5, 1.5}
	if len(at) != 3 || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("timestamps = %v, want %v", at, want)
	}
	if end != 1.5 {
		t.Errorf("end time = %g", end)
	}
	if e.Live() != 0 {
		t.Errorf("live = %d, want 0", e.Live())
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	e := New()
	var order []string
	spawn := func(name string, d float64) {
		e.Process(name, func(p *Proc) {
			p.Wait(d)
			order = append(order, name)
		})
	}
	spawn("slow", 2)
	spawn("fast", 1)
	spawn("tie-a", 1.5)
	spawn("tie-b", 1.5) // same time: creation order breaks the tie
	e.Run()
	want := []string{"fast", "tie-a", "tie-b", "slow"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleCallback(t *testing.T) {
	e := New()
	var fired float64 = -1
	e.Schedule(3, func() { fired = e.Now() })
	e.Run()
	if fired != 3 {
		t.Errorf("callback at %g, want 3", fired)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := New()
	hits := 0
	e.Process("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(1)
			hits++
		}
	})
	now := e.RunUntil(4.5)
	if now != 4.5 {
		t.Errorf("now = %g, want 4.5", now)
	}
	if hits != 4 {
		t.Errorf("hits = %d, want 4", hits)
	}
	e.Run() // finish the rest
	if hits != 10 {
		t.Errorf("hits after full run = %d", hits)
	}
	e.Shutdown()
}

func TestChanSendRecv(t *testing.T) {
	e := New()
	ch := NewChan[string](e)
	var got string
	var at float64
	e.Process("recv", func(p *Proc) {
		got = ch.Recv(p)
		at = p.Now()
	})
	e.Process("send", func(p *Proc) {
		p.Wait(2)
		ch.Send("hello")
	})
	e.Run()
	if got != "hello" || at != 2 {
		t.Errorf("got %v at %g", got, at)
	}
}

func TestChanSendAfter(t *testing.T) {
	e := New()
	ch := NewChan[int](e)
	var at float64
	e.Process("recv", func(p *Proc) {
		ch.Recv(p)
		at = p.Now()
	})
	e.Process("send", func(p *Proc) {
		p.Wait(1)
		ch.SendAfter(0.5, 42) // latency-style delivery; sender not blocked
		if p.Now() != 1 {
			t.Errorf("SendAfter blocked the sender")
		}
	})
	e.Run()
	if at != 1.5 {
		t.Errorf("delivery at %g, want 1.5", at)
	}
}

func TestChanBuffersAheadOfReceiver(t *testing.T) {
	e := New()
	ch := NewChan[int](e)
	var got []int
	e.Process("send", func(p *Proc) {
		ch.Send(1)
		ch.Send(2)
		ch.Send(3)
	})
	e.Process("recv", func(p *Proc) {
		p.Wait(5)
		for i := 0; i < 3; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("got %v, want FIFO [1 2 3]", got)
	}
	if ch.Len() != 0 {
		t.Errorf("chan should be drained")
	}
}

func TestTwoWaitersFIFO(t *testing.T) {
	e := New()
	ch := NewChan[int](e)
	var order []string
	waiter := func(name string) {
		e.Process(name, func(p *Proc) {
			ch.Recv(p)
			order = append(order, name)
		})
	}
	waiter("first")
	waiter("second")
	e.Process("send", func(p *Proc) {
		p.Wait(1)
		ch.Send(1)
		p.Wait(1)
		ch.Send(2)
	})
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

func TestShutdownKillsBlockedProcesses(t *testing.T) {
	e := New()
	ch := NewChan[int](e)
	e.Process("stuck-recv", func(p *Proc) { ch.Recv(p) })
	e.Process("stuck-early", func(p *Proc) { p.Wait(1); ch.Recv(p) })
	e.Run()
	if e.Live() != 2 {
		t.Fatalf("live = %d, want 2 stuck processes", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("live after shutdown = %d", e.Live())
	}
}

func TestShutdownKillsNeverStartedProcess(t *testing.T) {
	e := New()
	ran := false
	e.Process("never", func(p *Proc) { ran = true })
	// No Run: the start event is still queued.
	e.Shutdown()
	if ran {
		t.Error("process body should not have run")
	}
	if e.Live() != 0 {
		t.Errorf("live = %d", e.Live())
	}
}

func TestNestedProcessCreation(t *testing.T) {
	e := New()
	var childAt float64 = -1
	e.Process("parent", func(p *Proc) {
		p.Wait(1)
		e.Process("child", func(c *Proc) {
			c.Wait(0.5)
			childAt = c.Now()
		})
		p.Wait(10)
	})
	e.Run()
	if childAt != 1.5 {
		t.Errorf("child finished at %g, want 1.5", childAt)
	}
}

func TestNegativeDelaysPanic(t *testing.T) {
	e := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule(-1) should panic")
			}
		}()
		e.Schedule(-1, func() {})
	}()
	e.Process("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wait(-1) should panic")
			}
			panic(errKilled) // unwind cleanly through the kernel
		}()
		p.Wait(-1)
	})
	e.Run()
}

func TestManyProcessesStress(t *testing.T) {
	e := New()
	const n = 1000
	var count atomic.Int64
	var finish []float64
	done := NewChan[float64](e)
	for i := 0; i < n; i++ {
		d := float64(i%17) * 0.1
		e.Process("w", func(p *Proc) {
			p.Wait(d)
			count.Add(1)
			done.Send(p.Now())
		})
	}
	e.Process("collector", func(p *Proc) {
		for i := 0; i < n; i++ {
			finish = append(finish, done.Recv(p))
		}
	})
	e.Run()
	if count.Load() != n {
		t.Fatalf("count = %d", count.Load())
	}
	if !sort.Float64sAreSorted(finish) {
		t.Error("completion times not monotone")
	}
	if e.Live() != 0 {
		t.Errorf("live = %d", e.Live())
	}
}

func TestPingPongVirtualTime(t *testing.T) {
	// Two processes exchange k round trips with latency l each way; total
	// virtual time must be exactly 2*k*l.
	e := New()
	a2b, b2a := NewChan[int](e), NewChan[int](e)
	const k, l = 10, 0.025
	e.Process("a", func(p *Proc) {
		for i := 0; i < k; i++ {
			a2b.SendAfter(l, i)
			b2a.Recv(p)
		}
	})
	e.Process("b", func(p *Proc) {
		for i := 0; i < k; i++ {
			a2b.Recv(p)
			b2a.SendAfter(l, i)
		}
	})
	end := e.Run()
	if math.Abs(end-2*k*l) > 1e-12 {
		t.Errorf("end = %g, want %g", end, 2*k*l)
	}
}

func TestProcNameAndEnvAccessors(t *testing.T) {
	e := New()
	e.Process("named", func(p *Proc) {
		if p.Name() != "named" || p.Env() != e {
			t.Error("accessors wrong")
		}
	})
	e.Run()
}

// callLog is a Target recording when each call fired and with which arg.
type callLog struct {
	env   *Env
	fired []string
}

func (l *callLog) Fire(arg int32) {
	l.fired = append(l.fired, fmt.Sprintf("%d@%g", arg, l.env.Now()))
}

func TestScheduleCallFiresInTimeThenScheduleOrder(t *testing.T) {
	e := New()
	e.Grow(8)
	l := &callLog{env: e}
	e.ScheduleCall(2, l, 7)
	e.ScheduleCall(1, l, 3)
	e.ScheduleCall(1, l, 4) // same time: schedule order breaks the tie
	e.Schedule(1.5, func() { e.ScheduleCall(0, l, 9) })
	if e.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", e.Pending())
	}
	e.Run()
	if got := fmt.Sprint(l.fired); got != "[3@1 4@1 9@1.5 7@2]" {
		t.Errorf("fired %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative delay accepted")
		}
	}()
	e.ScheduleCall(-1, l, 0)
}

func TestSpawnSharesBodyAndNamesLazily(t *testing.T) {
	e := New()
	named := 0
	name := func(id int) string {
		named++
		return fmt.Sprintf("node-%d", id)
	}
	var ran []int
	body := func(p *Proc) {
		p.Wait(float64(p.ID()))
		ran = append(ran, p.ID())
	}
	procs := []*Proc{e.Spawn(2, body, name), e.Spawn(0, body, name), e.Spawn(1, body, name)}
	e.Run()
	if fmt.Sprint(ran) != "[0 1 2]" || named != 0 {
		t.Fatalf("ran %v with %d names formatted, want [0 1 2] and none", ran, named)
	}
	if got := procs[0].Name(); got != "node-2" || named != 1 {
		t.Errorf("Name() = %q after %d formats, want node-2 after 1", got, named)
	}
	if got := e.Process("plain", func(*Proc) {}).Name(); got != "plain" {
		t.Errorf("Process name = %q", got)
	}

	// A panic report formats the spawned process's name.
	bad := New()
	bad.Spawn(5, func(p *Proc) { panic("boom") }, name)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		bad.Run()
		return ""
	}()
	if !strings.HasPrefix(msg, `sim: process "node-5" panicked: boom`) {
		t.Errorf("panic = %q", msg)
	}
}

// TestNewChansOutgrowTheirShare drives channels past the one message and
// one waiter each starts with: a channel that outgrows its share of the
// common arrays must not write into its neighbours'.
func TestNewChansOutgrowTheirShare(t *testing.T) {
	e := New()
	cs := NewChans[int](e, 3)
	var got [3][]int
	for i := range cs {
		for w := 0; w < 2; w++ { // two waiters on every channel
			e.Process("recv", func(p *Proc) {
				for range 2 {
					got[i] = append(got[i], cs[i].Recv(p))
				}
			})
		}
	}
	e.Process("send", func(p *Proc) {
		for k := 0; k < 4; k++ { // four buffered before any receiver runs
			for i := range cs {
				cs[i].Send(10*i + k)
			}
		}
		p.Wait(1)
		cs[1].SendAfter(1, 99)
	})
	e.Run()
	for i, want := range []string{"[0 1 2 3]", "[10 11 12 13]", "[20 21 22 23]"} {
		if s := fmt.Sprint(got[i]); s != want {
			t.Errorf("channel %d delivered %s, want %s", i, s, want)
		}
	}
	if cs[1].Len() != 1 || cs[0].Len() != 0 || cs[2].Len() != 0 {
		t.Errorf("buffered %d/%d/%d, want 0/1/0", cs[0].Len(), cs[1].Len(), cs[2].Len())
	}
}
