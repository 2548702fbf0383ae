// Package sim is a process-oriented discrete-event simulation kernel with a
// virtual clock, in the style of SimPy or OMNeT++'s process modules.
//
// Simulated processes are coroutines (iter.Pull), and execution is strictly
// single-threaded and deterministic: the kernel resumes exactly one process
// at a time, and that process runs until it blocks or returns, switching
// straight back to the kernel without passing through the Go scheduler. A
// process may only block through kernel primitives (Proc.Wait, Chan.Recv);
// virtual time advances only in the kernel loop, by popping the earliest
// scheduled event. Ties are broken by schedule order, so runs are
// reproducible. Coroutines come from a package-level pool of workers that
// each run one process after another, shared by every Env in the program.
//
// The virtual grid (internal/vnet) and the simulated MPI ranks
// (internal/mpi) are built on this kernel; it is the substitute for the
// paper's real 88-machine GRID5000 testbed (see DESIGN.md §2).
package sim

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"slices"
	"sync"
)

// errKilled is the sentinel panic value used to unwind killed processes.
var errKilled = errors.New("sim: process killed")

// Event kinds. Resuming a blocked process and calling a Target are the
// kernel's hot actions, so they are encoded directly in the event instead
// of closing over their targets: scheduling then allocates nothing beyond
// the (amortised, reused) arena and heap slots themselves.
const (
	evFunc uint8 = iota
	evResume
	evCall
)

// Target is the receiver of a tagged call event (ScheduleCall): the kernel
// hands back the int32 the call was scheduled with. A client keeps what the
// call concerns in its own typed arena and addresses it by that index, so
// neither a closure nor a boxed payload passes through the event queue, and
// storing a pointer-shaped Target in the event moves a pointer, not a value.
// Chan's SendAfter staging is one Target; internal/vnet's in-flight message
// arena is another.
type Target interface {
	Fire(arg int32)
}

// event is one scheduled kernel action: a tagged union stored by value in
// the Env's event arena. The arena's slots are recycled through a free list
// as events run and are scheduled, so steady-state simulation performs no
// per-event allocation. The heap orders only eventKeys, which hold no
// pointers: sifting moves plain words and pays no GC write barriers.
type event struct {
	kind uint8
	// arg is the evCall argument; in a vacant slot it links the free list.
	arg  int32
	proc *Proc  // evResume target
	call Target // evCall target
	fn   func() // evFunc body
}

// eventKey places an arena slot's event in the queue.
type eventKey struct {
	time float64
	seq  int64
	slot int32
}

// eventQueue is a hand-rolled binary min-heap of event keys ordered by
// (time, seq); ties resolve in schedule order, keeping runs reproducible.
type eventQueue []eventKey

func eventLess(a, b *eventKey) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(k eventKey) {
	s := append(*q, k)
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if !eventLess(&s[c], &s[p]) {
			break
		}
		s[c], s[p] = s[p], s[c]
		c = p
	}
	*q = s
}

func (q *eventQueue) pop() eventKey {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(&s[r], &s[l]) {
			m = r
		}
		if !eventLess(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*q = s
	return top
}

// Env is a simulation environment: a virtual clock plus an event queue.
// An Env must only be driven from one goroutine (the one calling Run);
// processes interact with it exclusively through kernel primitives.
//
// A started process holds a pooled worker until it finishes or is killed.
// Run returns them as its processes complete; an Env abandoned with
// processes still blocked pins their workers until Shutdown is called.
type Env struct {
	now   float64
	queue eventQueue
	seq   int64
	// events is the arena the queue's keys address; free heads its list
	// of vacant slots (-1: none).
	events []event
	free   int32
	// first and last bound the list of every process created, in creation
	// order, chained through Proc.next (Shutdown's kill list); live counts
	// those not finished. slab is the chunk new Procs are carved from: a
	// process lives as long as its Env, so it needs no allocation of its
	// own.
	first, last *Proc
	live        int
	slab        []Proc
	// timeouts is the arena of armed RecvUntil deadlines; freeTimeout
	// heads its list of vacant slots (-1: none).
	timeouts    []timeout
	freeTimeout int32
}

// New creates an empty environment at virtual time 0.
func New() *Env {
	return &Env{free: -1, freeTimeout: -1}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Live returns the number of processes that have not finished.
func (e *Env) Live() int { return e.live }

// Pending returns the number of scheduled events.
func (e *Env) Pending() int { return len(e.queue) }

// Schedule runs fn at virtual time now+delay in kernel context. fn must not
// block; use a Proc for anything that waits.
func (e *Env) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.schedule(delay, event{kind: evFunc, fn: fn})
}

// schedule parks ev in the arena and queues it at now+delay.
func (e *Env) schedule(delay float64, ev event) {
	slot := e.free
	if slot >= 0 {
		e.free = e.events[slot].arg
		e.events[slot] = ev
	} else {
		slot = int32(len(e.events))
		e.events = append(e.events, ev)
	}
	e.seq++
	e.queue.push(eventKey{time: e.now + delay, seq: e.seq, slot: slot})
}

// scheduleResume schedules p to be handed control at now+delay without
// allocating a closure.
func (e *Env) scheduleResume(delay float64, p *Proc) {
	e.schedule(delay, event{kind: evResume, proc: p})
}

// ScheduleCall runs t.Fire(arg) at virtual time now+delay in kernel
// context, like Schedule, but without allocating: the event carries t and
// arg themselves. Fire must not block.
func (e *Env) ScheduleCall(delay float64, t Target, arg int32) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.schedule(delay, event{kind: evCall, call: t, arg: arg})
}

// Grow reserves room for n more scheduled events and n more processes. A
// caller that knows the size of what it is about to simulate (one process
// per simulated node, each with about one pending event) saves the queue
// regrowing from empty.
func (e *Env) Grow(n int) {
	e.queue = slices.Grow(e.queue, n)
	e.events = slices.Grow(e.events, n)
	if cap(e.slab)-len(e.slab) < n {
		e.slab = make([]Proc, 0, n)
	}
}

// maxIdleWorkers caps the shared free list of parked workers. It covers
// the live process count of most executions the repository runs (one
// process per simulated node: 88 on GRID5000, about a thousand on a
// 64-cluster platform of 2-32-node clusters); workers released beyond it
// are stopped. The list is bounded because every GC cycle scans each
// parked worker's stack.
const maxIdleWorkers = 1024

// worker is a pooled coroutine that runs processes one after another. A
// bare iter.Pull per process costs about ten allocations and a goroutine;
// a worker pays that once and is then handed from process to process, and
// from Env to Env, through the free list.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // valid only on the worker's own coroutine
	proc  *Proc               // the process the next resume starts
}

// workers is the free list shared by every Env in the program.
var workers struct {
	sync.Mutex
	idle []*worker
}

// getWorker takes a parked worker from the free list, or starts a new one.
func getWorker() *worker {
	workers.Lock()
	if n := len(workers.idle); n > 0 {
		w := workers.idle[n-1]
		workers.idle[n-1] = nil
		workers.idle = workers.idle[:n-1]
		workers.Unlock()
		return w
	}
	workers.Unlock()
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker parks w on the free list, or stops it if the list is full.
func putWorker(w *worker) {
	w.proc = nil
	workers.Lock()
	if len(workers.idle) < maxIdleWorkers {
		workers.idle = append(workers.idle, w)
		workers.Unlock()
		return
	}
	workers.Unlock()
	w.stop()
}

// loop is the worker's coroutine body: run the assigned process to its end,
// yield to the kernel, and start whichever process the next resume brings.
// stop makes the parked yield return false, which ends the coroutine.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.proc.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// Proc is a simulated process. Its function runs on a pooled coroutine,
// and only while the kernel has resumed it; every kernel primitive that
// waits switches back to the kernel and returns when the process is next
// resumed.
type Proc struct {
	env  *Env
	name string
	// id and namer are Spawn's: the caller's id for the process, and the
	// function that formats its name when Name is called.
	id    int
	namer func(id int) string
	fn    func(p *Proc)
	// w is the worker running the process: nil until its first resume and
	// again once it has finished.
	w *worker
	// killed makes the next return from block unwind the process with
	// errKilled (see Kill).
	killed bool
	done   bool
	// next links the Env's list of processes.
	next *Proc
	// waitSeq counts channel-wait registrations; RecvUntil timeout events
	// carry the sequence they were armed for, so a timer outlives its wait
	// harmlessly (see RecvUntil).
	waitSeq int64
}

// Name returns the process name (for traces and error messages).
func (p *Proc) Name() string {
	if p.namer != nil {
		return p.namer(p.id)
	}
	return p.name
}

// ID returns the id the process was spawned with (0 for Process).
func (p *Proc) ID() int { return p.id }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Process creates a process that starts executing fn at the current virtual
// time (once Run is pumping events). It may be called before Run or from
// inside another process.
func (e *Env) Process(name string, fn func(p *Proc)) *Proc {
	return e.start(Proc{env: e, name: name, fn: fn})
}

// Spawn is Process for a program that starts many processes from one body:
// fn tells them apart by p.ID(), which returns id, and name formats a
// process's name from its id only when Name (or a panic report) asks for
// it. Spawning therefore needs neither a closure nor a formatted string per
// process.
func (e *Env) Spawn(id int, fn func(p *Proc), name func(id int) string) *Proc {
	return e.start(Proc{env: e, id: id, namer: name, fn: fn})
}

// start places proc in the slab, registers it and schedules its first
// resume. Slab chunks double from 8 Procs unless Grow sized one.
func (e *Env) start(proc Proc) *Proc {
	if len(e.slab) == cap(e.slab) {
		e.slab = make([]Proc, 0, max(2*cap(e.slab), 8))
	}
	e.slab = append(e.slab, proc)
	p := &e.slab[len(e.slab)-1]
	if e.last == nil {
		e.first = p
	} else {
		e.last.next = p
	}
	e.last = p
	e.live++
	e.scheduleResume(0, p)
	return p
}

// run executes the process body on its worker. A kill unwinds to here and
// ends the process quietly; any other panic is a bug in simulation code,
// re-raised with the process name and stack so that it surfaces from Run
// on the kernel's goroutine.
func (p *Proc) run() {
	defer func() {
		p.done = true
		if r := recover(); r != nil && r != errKilled {
			// The worker's coroutine dies with this panic and transfer
			// never returns to retire the process, so retire it here.
			p.env.live--
			panic(fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.Name(), r, debug.Stack()))
		}
	}()
	p.fn(p)
}

// transfer hands control to p and returns when it blocks or finishes. A
// process's first resume binds it to a worker; finishing returns the worker
// to the free list. A process killed before it ever ran needs no worker.
func (e *Env) transfer(p *Proc) {
	if p.done {
		return
	}
	if p.w == nil {
		if p.killed {
			p.done = true
			e.live--
			return
		}
		p.w = getWorker()
		p.w.proc = p
	}
	p.w.next()
	if p.done {
		e.live--
		putWorker(p.w)
		p.w = nil
	}
}

// block yields control to the kernel and waits to be resumed. It panics
// with errKilled if the process has been killed meanwhile.
func (p *Proc) block() {
	p.w.yield(struct{}{})
	if p.killed {
		panic(errKilled)
	}
}

// Wait advances the process by d seconds of virtual time (d >= 0).
func (p *Proc) Wait(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %g", d))
	}
	p.env.scheduleResume(d, p)
	p.block()
}

// Run pumps events until the queue is empty and returns the final virtual
// time. Processes still blocked on channels when the queue drains are left
// alive; call Shutdown to terminate them. A process that panics (other
// than by being killed) makes Run panic with a message naming it.
func (e *Env) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil pumps events with timestamps <= limit and returns the virtual
// time reached (limit if events remain beyond it).
func (e *Env) RunUntil(limit float64) float64 {
	for len(e.queue) > 0 {
		if e.queue[0].time > limit {
			e.now = limit
			return e.now
		}
		e.step()
	}
	return e.now
}

// step pops the earliest event, advances the clock to it and runs it.
func (e *Env) step() {
	k := e.queue.pop()
	ev := e.events[k.slot]
	e.events[k.slot] = event{arg: e.free} // drop the references it held
	e.free = k.slot
	e.now = k.time
	switch ev.kind {
	case evResume:
		e.transfer(ev.proc)
	case evCall:
		ev.call.Fire(ev.arg)
	default:
		ev.fn()
	}
}

// RunCtx is Run with cooperative cancellation: ctx is polled every `every`
// events (every <= 0 means a 1024-event batch). On cancellation the
// environment is shut down and ctx's error is returned with the virtual
// time reached; a nil error means the queue drained normally.
func (e *Env) RunCtx(ctx context.Context, every int) (float64, error) {
	if ctx == nil {
		return e.Run(), nil
	}
	if every <= 0 {
		every = 1024
	}
	for len(e.queue) > 0 {
		if err := ctx.Err(); err != nil {
			e.Shutdown()
			return e.now, err
		}
		for i := 0; i < every && len(e.queue) > 0; i++ {
			e.step()
		}
	}
	return e.now, nil
}

// Kill terminates p immediately: it is resumed with its killed flag set, so
// its blocking primitive panics internally and the process unwinds and
// hands its worker back (a no-op if p already finished). Kill must be
// called from kernel context — a Schedule callback, or between Run calls —
// never from another process's simulation code. Events still queued for p
// become no-ops; channels p was waiting on simply drop it.
func (e *Env) Kill(p *Proc) {
	p.killed = true
	e.transfer(p)
}

// Shutdown terminates every unfinished process (see Kill), which returns
// their workers to the pool. The event queue is cleared. The environment
// can be inspected afterwards but not reused.
func (e *Env) Shutdown() {
	e.queue, e.events, e.free = nil, nil, -1
	e.timeouts, e.freeTimeout = nil, -1
	for p := e.first; p != nil; p = p.next {
		if !p.done {
			e.Kill(p)
		}
	}
}

// Chan is an unbounded FIFO message channel between processes carrying
// payloads of a single static type. Sends never block; Recv blocks the
// calling process until a message is available.
//
// No payload is ever boxed: the buffer is a typed deque, and delayed sends
// (SendAfter) park their payload in the channel's typed staging arena with
// only the slot index travelling through the kernel's event queue. Code
// that genuinely needs heterogeneous payloads (a protocol multiplexing
// message kinds) should carry an envelope struct whose payload field is
// `any` — that keeps the boxing at the edge that needs it, off the kernel
// hot path (internal/vnet's Message is the canonical example).
type Chan[T any] struct {
	env *Env
	// buf[head:] are the undelivered messages; popping advances head instead
	// of re-slicing so the backing array keeps its capacity, and a full drain
	// rewinds to the front. Steady-state traffic therefore buffers without
	// allocating.
	buf     []T
	head    int
	waiters []*Proc
	// staged/free are the slot arena for in-flight SendAfter payloads:
	// deliveries may unqueue out of order (different delays), so slots are
	// addressed, recycled through a free list, and never boxed.
	staged []T
	free   []int32
}

// NewChan creates a channel on e. The payload type cannot be inferred from
// the arguments, so call sites name it: NewChan[*Message](env).
func NewChan[T any](e *Env) *Chan[T] { return &Chan[T]{env: e} }

// NewChans returns n channels on e held by value in one slice, for a caller
// with a channel per endpoint (internal/vnet's inboxes). Readying them costs
// a constant number of allocations: each channel starts with room for one
// buffered message and one waiter, carved from arrays the n channels share,
// and moves to an array of its own only when it outgrows that room.
func NewChans[T any](e *Env, n int) []Chan[T] {
	cs := make([]Chan[T], n)
	buf := make([]T, n)
	waiters := make([]*Proc, n)
	for i := range cs {
		cs[i] = Chan[T]{env: e, buf: buf[i : i : i+1], waiters: waiters[i : i : i+1]}
	}
	return cs
}

// Len returns the number of buffered messages.
func (c *Chan[T]) Len() int { return len(c.buf) - c.head }

// Send delivers v immediately (at the current virtual time).
func (c *Chan[T]) Send(v T) { c.deliver(v) }

// SendAfter delivers v after d seconds of virtual time; the caller is not
// blocked. This is the primitive network links use for latency.
func (c *Chan[T]) SendAfter(d float64, v T) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	c.env.ScheduleCall(d, (*chanStage[T])(c), c.stage(v))
}

// stage parks v in the arena and returns its slot.
func (c *Chan[T]) stage(v T) int32 {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		c.staged[s] = v
		return s
	}
	c.staged = append(c.staged, v)
	return int32(len(c.staged) - 1)
}

// chanStage is a Chan seen as the Target of its own SendAfter events. It is
// a conversion of the channel pointer, not a separate object, so the
// channel's exported method set carries no kernel hook.
type chanStage[T any] Chan[T]

// Fire completes a SendAfter: it frees the slot and delivers its payload.
func (s *chanStage[T]) Fire(slot int32) {
	c := (*Chan[T])(s)
	v := c.staged[slot]
	var zero T
	c.staged[slot] = zero // drop the reference held by the vacated slot
	c.free = append(c.free, slot)
	c.deliver(v)
}

func (c *Chan[T]) deliver(v T) {
	if c.head > 32 && 2*c.head >= len(c.buf) {
		// The drained prefix dominates the buffer; compact in place so a
		// never-empty channel cannot grow its backing array unboundedly.
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf = c.buf[:n]
		c.head = 0
	}
	c.buf = append(c.buf, v)
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		copy(c.waiters, c.waiters[1:])
		c.waiters = c.waiters[:len(c.waiters)-1]
		if w.done {
			// The waiter was killed while blocked; wake the next one so a
			// buffered message is never stranded behind a dead process.
			continue
		}
		c.env.scheduleResume(0, w)
		break
	}
}

// popFront removes and returns the oldest buffered message, preserving the
// backing array's capacity.
func (c *Chan[T]) popFront() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero // drop the reference held by the vacated slot
	c.head++
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	}
	return v
}

// Recv blocks p until a message is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	for c.Len() == 0 {
		c.waiters = append(c.waiters, p)
		p.waitSeq++
		p.block()
	}
	return c.popFront()
}

// RecvUntil is Recv with a virtual-time deadline: it returns (msg, true)
// when a message is available strictly before the deadline passes with an
// empty buffer, and (zero, false) at the deadline otherwise. The failure-
// aware MPI executor derives its per-receive deadlines from the analytic
// schedule and calls this instead of Recv.
func (c *Chan[T]) RecvUntil(p *Proc, deadline float64) (T, bool) {
	for c.Len() == 0 {
		if deadline <= c.env.now {
			var zero T
			return zero, false
		}
		c.waiters = append(c.waiters, p)
		p.waitSeq++
		c.env.armTimeout(deadline-c.env.now, p, c)
		p.block()
	}
	return c.popFront(), true
}

// unwait removes p from c's waiters and reports whether it was there.
func (c *Chan[T]) unwait(p *Proc) bool {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// waitQueue is a channel seen by a RecvUntil timeout: whatever its payload
// type, the timeout only needs to take its process off the waiters.
type waitQueue interface {
	unwait(p *Proc) bool
}

// timeout is one armed RecvUntil deadline: process p, parked on q in the
// wait numbered seq. In a vacant arena slot, next links the free list.
type timeout struct {
	p    *Proc
	q    waitQueue
	seq  int64
	next int32
}

// armTimeout schedules the deadline of p's current wait on q as a tagged
// call into the Env's timeout arena: the same event time and sequence
// number a closure would get, without the closure.
func (e *Env) armTimeout(delay float64, p *Proc, q waitQueue) {
	slot := e.freeTimeout
	if slot >= 0 {
		e.freeTimeout = e.timeouts[slot].next
		e.timeouts[slot] = timeout{p: p, q: q, seq: p.waitSeq}
	} else {
		if e.timeouts == nil {
			// Room for one pending deadline per live process.
			e.timeouts = make([]timeout, 0, max(e.live, 8))
		}
		slot = int32(len(e.timeouts))
		e.timeouts = append(e.timeouts, timeout{p: p, q: q, seq: p.waitSeq})
	}
	e.ScheduleCall(delay, (*timeouts)(e), slot)
}

// timeouts is an Env seen as the Target of its RecvUntil deadlines (a
// conversion, like chanStage, so Env's exported method set carries no
// kernel hook).
type timeouts Env

// Fire expires a deadline. It only acts if the process is still parked in
// the wait it was armed for: the sequence guard rejects later waits of the
// same process, the membership scan waits already woken by a delivery.
func (t *timeouts) Fire(slot int32) {
	e := (*Env)(t)
	to := e.timeouts[slot]
	e.timeouts[slot] = timeout{next: e.freeTimeout}
	e.freeTimeout = slot
	if to.p.waitSeq != to.seq || to.p.done {
		return
	}
	if to.q.unwait(to.p) {
		e.scheduleResume(0, to.p)
	}
}
