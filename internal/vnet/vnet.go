// Package vnet is a virtual point-to-point network running on the
// discrete-event kernel of internal/sim. Every link behaves per the pLogP
// model: a transmission of m bytes occupies the sending process for
// os(m) + g(m) virtual seconds and the payload reaches the receiver's inbox
// L seconds after the gap elapses (plus or(m) at the receiver when the
// parameter set defines overheads).
//
// This package is the substitute for the paper's real grid hardware: the
// simulated MPI layer (internal/mpi) sends every individual message of a
// broadcast through it. An optional multiplicative jitter and a fixed
// per-message software overhead let experiments model the measurement noise
// and MPI-stack costs of the practical evaluation (§7 of the paper).
package vnet

import (
	"fmt"
	"math/rand"

	"gridbcast/internal/plogp"
	"gridbcast/internal/sim"
)

// Message is one payload in flight or delivered.
type Message struct {
	From, To int
	Size     int64
	Tag      int
	// Seg is the segment index within a pipelined multi-segment stream
	// (0 for whole-message sends), so receivers can reassemble streams
	// that interleave with other traffic.
	Seg     int
	Payload any
	// SentAt is when the sender started transmitting; ArrivedAt is set on
	// delivery to the receiver's inbox.
	SentAt, ArrivedAt float64
}

// Config tunes non-ideal behaviours. The zero value is the ideal pLogP
// network, under which simulated makespans match analytic predictions
// exactly (the integration tests rely on this).
type Config struct {
	// Jitter, when > 0, multiplies every gap and latency by a factor
	// uniform in [1-Jitter, 1+Jitter]. Requires Seed.
	Jitter float64
	// Seed seeds the jitter stream; ignored when Jitter == 0.
	Seed int64
	// SoftwareOverhead is a fixed per-message cost (seconds) added to the
	// sender occupation, modelling the MPI stack above the raw network.
	SoftwareOverhead float64
	// Faults, when non-nil, injects the deterministic failure scenario it
	// describes (link degradation, message loss with bounded redelivery,
	// node crashes). See FaultPlan.
	Faults *FaultPlan
}

// Validate reports configuration errors without running anything: jitter
// outside [0,1), jitter without an explicit seed (a silently fixed stream
// would masquerade as fresh randomness), or a malformed fault plan. n is
// the endpoint count the config will serve (0 skips the index checks).
func (c Config) Validate(n int) error {
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("vnet: jitter %g outside [0,1)", c.Jitter)
	}
	if c.Jitter > 0 && c.Seed == 0 {
		return fmt.Errorf("vnet: jitter %g needs an explicit non-zero Seed (reproducibility)", c.Jitter)
	}
	if c.SoftwareOverhead < 0 {
		return fmt.Errorf("vnet: negative software overhead %g", c.SoftwareOverhead)
	}
	return c.Faults.validate(n)
}

// Network connects n processes (0..n-1) with pLogP links.
//
// Receiver side: pLogP's gap is the minimal interval between *consecutive*
// messages on a NIC, in both directions (Kielmann et al. §3). The network
// therefore enforces a minimum spacing between deliveries at each
// endpoint: a message of size m is delivered no earlier than g(m) after
// the previous delivery. Patterns where every process receives exactly one
// message (broadcast trees) are unaffected, as are serial exchanges
// (ping-pong, rendezvous drains); converging patterns (many concurrent
// senders into one gather coordinator) see the receiver bottleneck a real
// single-port NIC has.
type Network struct {
	env  *sim.Env
	link func(from, to int) plogp.Params
	// inbox channels are typed on the envelope: Message itself is the
	// heterogeneity shim (its Payload field is `any`), so the kernel moves
	// only *Message pointers and never boxes.
	inbox []sim.Chan[*Message]
	// pending holds messages pulled from the inbox while looking for a
	// match (RecvMatch).
	pending [][]*Message
	// lastDelivered[i] is the time of endpoint i's most recent delivery;
	// the next delivery lands no earlier than lastDelivered + g(m) of the
	// incoming message (the pLogP minimum receive spacing).
	lastDelivered []float64
	cfg           Config
	rng           *rand.Rand
	faults        *faultState
	bound         []*sim.Proc

	// slab is the chunk Messages are taken from (see newMessage).
	slab []Message
	// flights is the in-flight arena: one slot per message between its
	// send and its delivery, addressed by the events that move it (see
	// deliveries), with room for one per endpoint before it grows. free
	// heads the list of vacant slots, chained through flight.next; -1 when
	// empty.
	flights []flight
	free    int32

	// Counters (observable after a run). Lost counts permanently lost
	// messages (retries exhausted, or addressed to a crashed node);
	// Redelivered counts link-layer redelivery attempts of lossy links.
	Messages    int64
	Bytes       int64
	Lost        int64
	Redelivered int64
}

// New builds a network of n endpoints on env. link must return the pLogP
// parameters for every ordered pair from != to.
func New(env *sim.Env, n int, link func(from, to int) plogp.Params, cfg Config) *Network {
	if n <= 0 {
		panic("vnet: need at least one endpoint")
	}
	nw := &Network{
		env:           env,
		link:          link,
		inbox:         sim.NewChans[*Message](env, n),
		pending:       make([][]*Message, n),
		lastDelivered: make([]float64, n),
		cfg:           cfg,
		faults:        newFaultState(cfg.Faults, n),
		bound:         make([]*sim.Proc, n),
		flights:       make([]flight, 0, n),
		free:          -1,
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		if cfg.Jitter != 0 {
			panic(fmt.Sprintf("vnet: jitter %g outside [0,1)", cfg.Jitter))
		}
	}
	if err := cfg.Faults.validate(n); err != nil {
		panic(err.Error())
	}
	if cfg.Jitter > 0 {
		nw.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if cfg.Faults != nil {
		for _, cr := range cfg.Faults.Crashes {
			cr := cr
			env.Schedule(cr.At, func() {
				nw.faults.crashed[cr.Node] = true
				if p := nw.bound[cr.Node]; p != nil {
					env.Kill(p)
				}
			})
		}
	}
	return nw
}

// N returns the number of endpoints.
func (nw *Network) N() int { return len(nw.inbox) }

func (nw *Network) jitter() float64 {
	if nw.rng == nil {
		return 1
	}
	return 1 + (nw.rng.Float64()*2-1)*nw.cfg.Jitter
}

// Send transmits size bytes from endpoint `from` (whose process is p) to
// endpoint `to`. The calling process is blocked for the sender occupation
// (software overhead + os(m) + g(m)); the message lands in the receiver's
// inbox one latency later. Send returns once the sender is free again, per
// the pLogP gap semantics.
func (nw *Network) Send(p *sim.Proc, from, to int, size int64, tag int, payload any) {
	nw.SendSeg(p, from, to, size, 0, tag, payload)
}

// SendSeg is Send for one segment of a pipelined multi-segment stream: the
// message carries the segment index and is costed at the segment size, so a
// forwarding process can stream segments onward while later ones are still
// in flight. Each segment pays the full pLogP per-message cost (the gap's
// fixed part is the price of pipelining).
func (nw *Network) SendSeg(p *sim.Proc, from, to int, size int64, seg, tag int, payload any) {
	if from == to {
		panic("vnet: self-send")
	}
	params := nw.link(from, to)
	msg := nw.newMessage()
	*msg = Message{From: from, To: to, Size: size, Tag: tag, Seg: seg, Payload: payload, SentAt: p.Now()}
	// Fault evaluation keys on the send time, so a scenario's behaviour is
	// a pure function of the fault plan and the traffic pattern.
	gapScale, latScale := nw.faults.scales(from, to, p.Now())
	lost, permanent := nw.faults.consumeLoss(from, to, p.Now())
	occupied := nw.cfg.SoftwareOverhead + params.SendOverhead(size) + params.Gap(size)*gapScale*nw.jitter()
	lat := params.L * latScale * nw.jitter()
	recvOv := params.RecvOverhead(size)
	p.Wait(occupied)
	nw.Messages++
	nw.Bytes += size
	if permanent {
		// The original attempt and every redelivery are lost; the message
		// never reaches the inbox. Receive deadlines (mpi) catch this.
		nw.Lost++
		nw.Redelivered += int64(lost - 1)
		return
	}
	extra := 0.0
	for a := 0; a < lost; a++ {
		extra += nw.cfg.Faults.backoff(a)
	}
	nw.Redelivered += int64(lost)
	slot := nw.takeFlight(flight{msg: msg, gap: params.Gap(size) * gapScale})
	nw.env.ScheduleCall(extra+lat+recvOv, (*deliveries)(nw), slot)
}

// maxSlabChunk caps the Message slab's chunks. The first chunk holds one
// message per endpoint (a whole-message broadcast sends n-1) and each next
// one doubles up to the cap, so small executions stay small and long
// segment streams allocate a few chunks, not one object per message.
const maxSlabChunk = 4096

// newMessage returns the next unused Message of the network's slab.
// Messages live as long as their network — a receiver keeps the pointer it
// is handed, so a Message is never reused — and chunks are reclaimed with
// the last message that points into them.
func (nw *Network) newMessage() *Message {
	if len(nw.slab) == cap(nw.slab) {
		nw.slab = make([]Message, 0, min(max(2*cap(nw.slab), len(nw.inbox)), maxSlabChunk))
	}
	nw.slab = nw.slab[:len(nw.slab)+1]
	return &nw.slab[len(nw.slab)-1]
}

// flight is one message between SendSeg and its delivery. Its slot is the
// argument of two events: the arrival at the receiver's NIC, then the
// delivery into the inbox once the NIC's receive spacing has elapsed.
type flight struct {
	msg *Message
	// gap is the receive-side spacing g(m) the message imposes on the
	// receiving NIC (degradation-scaled, not jittered).
	gap float64
	// arrived marks a slot whose arrival event has run: its next event is
	// the delivery.
	arrived bool
	next    int32 // free-list link while the slot is vacant
}

// takeFlight parks f in a vacant slot of the in-flight arena.
func (nw *Network) takeFlight(f flight) int32 {
	if s := nw.free; s >= 0 {
		nw.free = nw.flights[s].next
		nw.flights[s] = f
		return s
	}
	nw.flights = append(nw.flights, f)
	return int32(len(nw.flights) - 1)
}

// releaseFlight vacates slot s.
func (nw *Network) releaseFlight(s int32) {
	nw.flights[s] = flight{next: nw.free}
	nw.free = s
}

// deliveries is the Network seen as the sim.Target of its in-flight
// messages' events: a conversion of the network pointer, so the Network's
// exported method set carries no kernel hook and scheduling a message
// allocates nothing.
type deliveries Network

// Fire runs slot's next event. On arrival it drops the message if the
// receiver has crashed, else enforces the minimum spacing between
// consecutive deliveries at the receiving NIC and schedules the delivery;
// on delivery it stamps ArrivedAt and hands the message to the inbox.
func (d *deliveries) Fire(slot int32) {
	nw := (*Network)(d)
	env := nw.env
	f := &nw.flights[slot]
	to := f.msg.To
	if f.arrived {
		msg := f.msg
		nw.releaseFlight(slot)
		msg.ArrivedAt = env.Now()
		nw.inbox[to].Send(msg)
		return
	}
	if nw.faults.crashed[to] {
		// The receiver died before the payload landed.
		nw.Lost++
		nw.releaseFlight(slot)
		return
	}
	wait := nw.lastDelivered[to] + f.gap - env.Now()
	if wait < 0 {
		wait = 0
	}
	nw.lastDelivered[to] = env.Now() + wait
	f.arrived = true
	env.ScheduleCall(wait, d, slot)
}

// Recv blocks until any message addressed to node arrives (FIFO across the
// pending buffer first, then the inbox).
func (nw *Network) Recv(p *sim.Proc, node int) *Message {
	if q := nw.pending[node]; len(q) > 0 {
		m := q[0]
		nw.pending[node] = q[1:]
		return m
	}
	return nw.take(p, node)
}

// RecvMatch blocks until a message addressed to node satisfying match
// arrives. Non-matching messages are buffered in arrival order and remain
// available to later Recv/RecvMatch calls.
func (nw *Network) RecvMatch(p *sim.Proc, node int, match func(*Message) bool) *Message {
	for i, m := range nw.pending[node] {
		if match(m) {
			nw.pending[node] = append(nw.pending[node][:i], nw.pending[node][i+1:]...)
			return m
		}
	}
	for {
		m := nw.take(p, node)
		if match(m) {
			return m
		}
		nw.pending[node] = append(nw.pending[node], m)
	}
}

// RecvMatchUntil is RecvMatch with a virtual-time deadline: it returns
// (msg, true) when a matching message is available before the deadline and
// (nil, false) once the deadline passes. Non-matching messages drained
// while waiting are buffered exactly as RecvMatch buffers them.
func (nw *Network) RecvMatchUntil(p *sim.Proc, node int, deadline float64, match func(*Message) bool) (*Message, bool) {
	for i, m := range nw.pending[node] {
		if match(m) {
			nw.pending[node] = append(nw.pending[node][:i], nw.pending[node][i+1:]...)
			return m, true
		}
	}
	for {
		m, ok := nw.inbox[node].RecvUntil(p, deadline)
		if !ok {
			return nil, false
		}
		if match(m) {
			return m, true
		}
		nw.pending[node] = append(nw.pending[node], m)
	}
}

func (nw *Network) take(p *sim.Proc, node int) *Message {
	return nw.inbox[node].Recv(p)
}
