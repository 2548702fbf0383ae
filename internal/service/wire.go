package service

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
)

// AppendPlan appends the wire form of pl to b and returns the extended
// buffer. The bytes are exactly json.Marshal(EncodePlan(pl)): PlanJSON's
// field order and omitempty rules, nil slices as null, encoding/json's
// float and string formatting, and an error (with b returned unextended)
// when a float is NaN or infinite. PlanJSON and EncodePlan remain the
// schema and the reference this encoder is tested against.
//
// A plan repeats many of its floats: an event's Start is its sender's
// earlier SenderFree (or RT), and RT[j] is the Arrive of j's event. Within
// one plan the encoder remembers where each float value was first written
// and copies those bytes instead of formatting the value again; equal bits
// format identically, so the copy is exact.
func AppendPlan(b []byte, pl *gridbcast.Plan) ([]byte, error) {
	e := planEncoders.Get().(*planEncoder)
	defer planEncoders.Put(e)
	floats, _ := planCounts(pl)
	e.reset(floats)
	start := len(b)
	b = e.plan(b, pl)
	if e.err != nil {
		return b[:start], e.err
	}
	return b, nil
}

// MarshalPlan is json.Marshal(EncodePlan(pl)) through AppendPlan, into a
// buffer sized for the plan.
func MarshalPlan(pl *gridbcast.Plan) ([]byte, error) {
	return AppendPlan(make([]byte, 0, planWireSize(pl)), pl)
}

// planCounts returns how many floats and events pl's wire form holds. The
// float count bounds the distinct values the reuse table must hold.
func planCounts(pl *gridbcast.Plan) (floats, events int) {
	floats = 1 + len(pl.Candidates)
	if sc := pl.Schedule; sc != nil {
		events += len(sc.Events)
		floats += len(sc.RT) + len(sc.Idle) + len(sc.Completion)
	}
	if ss := pl.Segmented; ss != nil {
		events += len(ss.Events)
		floats += len(ss.FirstRT) + len(ss.RT) + len(ss.Idle) + len(ss.Completion)
	}
	return floats + 3*events, events
}

// planWireSize estimates a plan's encoded length from its shape (about 22
// bytes a float, 54 more for an event's keys and integers), slightly over
// the typical length so that the buffer rarely grows.
func planWireSize(pl *gridbcast.Plan) int {
	floats, events := planCounts(pl)
	n := 256 + 42*len(pl.Candidates) + 54*events + 22*floats
	if ss := pl.Segmented; ss != nil {
		n += 6 * len(ss.LocalSegmented)
	}
	return n
}

var planEncoders = sync.Pool{New: func() any { return new(planEncoder) }}

// floatRef locates the bytes a float value was first written as: b[off :
// off+n]. n == 0 marks an empty slot (every formatted float is non-empty).
type floatRef struct {
	bits uint64
	off  uint32
	n    uint32
}

// maxFloatRefs caps the reuse table (16 bytes a slot). Plans with more
// distinct floats than half of it format the overflow afresh.
const maxFloatRefs = 1 << 16

// planEncoder holds the per-plan reuse table: open addressing with linear
// probing over a power-of-two slice, filled to at most half, so every
// probe ends at an empty slot.
type planEncoder struct {
	tab   []floatRef
	mask  uint64
	shift uint
	free  int // slots that may still be filled
	err   error
}

// reset empties the table and sizes it for a plan of floats values.
func (e *planEncoder) reset(floats int) {
	size := 16
	for size < 2*floats && size < maxFloatRefs {
		size *= 2
	}
	if cap(e.tab) < size {
		e.tab = make([]floatRef, size)
	} else {
		e.tab = e.tab[:size]
		clear(e.tab)
	}
	e.mask = uint64(size - 1)
	e.shift = uint(64 - bits.TrailingZeros(uint(size)))
	e.free = size / 2
	e.err = nil
}

// float appends f as encoding/json writes a float64, reusing the bytes of
// an earlier equal value in the same plan.
func (e *planEncoder) float(b []byte, f float64) []byte {
	key := math.Float64bits(f)
	i := (key * 0x9e3779b97f4a7c15) >> e.shift
	for {
		r := &e.tab[i]
		if r.n == 0 {
			break
		}
		if r.bits == key {
			return append(b, b[r.off:r.off+r.n]...)
		}
		i = (i + 1) & e.mask
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return b
	}
	off := len(b)
	b = appendFloat(b, f)
	if e.free > 0 && len(b) <= math.MaxUint32 {
		e.tab[i] = floatRef{bits: key, off: uint32(off), n: uint32(len(b) - off)}
		e.free--
	}
	return b
}

// appendFloat is encoding/json's float64 rule: shortest 'f' form, or 'e'
// below 1e-6 and from 1e21 on, with a one-digit negative exponent's
// leading zero removed (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string the way json.Marshal does.
// Printable ASCII other than the characters encoding/json escapes (quote,
// backslash, and the HTML-sensitive <, > and &) is copied; anything else
// is left to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func (e *planEncoder) floats(b []byte, key string, fs []float64) []byte {
	b = append(b, key...)
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.float(b, f)
	}
	return append(b, ']')
}

// events writes a schedule's event list; EncodePlan always allocates it,
// so an empty list is [] rather than null.
func (e *planEncoder) events(b []byte, evs []sched.Event) []byte {
	b = append(b, `{"events":[`...)
	for i := range evs {
		ev := &evs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"round":`...)
		b = strconv.AppendInt(b, int64(ev.Round), 10)
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(ev.From), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(ev.To), 10)
		b = append(b, `,"start":`...)
		b = e.float(b, ev.Start)
		b = append(b, `,"sender_free":`...)
		b = e.float(b, ev.SenderFree)
		b = append(b, `,"arrive":`...)
		b = e.float(b, ev.Arrive)
		b = append(b, '}')
	}
	return append(b, ']')
}

func (e *planEncoder) plan(b []byte, pl *gridbcast.Plan) []byte {
	b = append(b, `{"heuristic":`...)
	b = appendString(b, pl.Heuristic)
	b = append(b, `,"root":`...)
	b = strconv.AppendInt(b, int64(pl.Root), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, pl.Size, 10)
	b = append(b, `,"makespan":`...)
	b = e.float(b, pl.Makespan)
	if pl.SegSize != 0 {
		b = append(b, `,"seg_size":`...)
		b = strconv.AppendInt(b, pl.SegSize, 10)
	}
	if pl.K != 0 {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(pl.K), 10)
	}
	if pl.LocalSegmented {
		b = append(b, `,"local_segmented":true`...)
	}
	if pl.Overlap {
		b = append(b, `,"overlap":true`...)
	}
	if len(pl.Candidates) > 0 {
		b = append(b, `,"candidates":[`...)
		for i, c := range pl.Candidates {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"heuristic":`...)
			b = appendString(b, c.Heuristic)
			b = append(b, `,"makespan":`...)
			b = e.float(b, c.Makespan)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if sc := pl.Schedule; sc != nil {
		b = append(b, `,"schedule":`...)
		b = e.events(b, sc.Events)
		b = e.floats(b, `,"rt":`, sc.RT)
		b = e.floats(b, `,"idle":`, sc.Idle)
		b = e.floats(b, `,"completion":`, sc.Completion)
		b = append(b, '}')
	}
	if ss := pl.Segmented; ss != nil {
		b = append(b, `,"segmented":`...)
		b = e.events(b, ss.Events)
		b = e.floats(b, `,"first_rt":`, ss.FirstRT)
		b = e.floats(b, `,"rt":`, ss.RT)
		b = e.floats(b, `,"idle":`, ss.Idle)
		b = e.floats(b, `,"completion":`, ss.Completion)
		if len(ss.LocalSegmented) > 0 {
			b = append(b, `,"local_segmented":[`...)
			for i, on := range ss.LocalSegmented {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendBool(b, on)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, '}')
}
