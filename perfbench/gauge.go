package main

import (
	"math"
	"strconv"
	"time"
)

// Host-speed correction.
//
// The machines this benchmark runs on share each core with other
// tenants. While a neighbour is busy on the same physical core, code that
// is bound by execution throughput (JSON encoding, float formatting, map
// hashing, copying: most of what a request does) runs at up to half
// speed, in episodes of seconds to minutes; latency-bound code (a chain
// of dependent multiplies, cache-missing loads) does not slow down. A
// whole run can fall inside one state, so identical runs read up to 1.7x
// apart and no choice of samples inside a run removes it.
//
// So the timed loops read a gauge between blocks of operations: the
// fastest of gaugeReps runs of a fixed, throughput-bound reference kernel
// (formatting floats), which slows down as the request path does. A
// block's times are scaled by (gaugeRef / g)^sensitivity, where g is the
// mean of the readings before and after it, which turns them into times
// on an uncontended core of the reference machine. A workload's
// sensitivity is how strongly its time follows the gauge, measured on the
// reference machine as the slope of a run's log op rate on its mean log
// reading across ten runs (serve-hot 0.89, serve-cold 0.78, simulate
// 0.71; the instruction mixes differ) and used as 1, 0.8 and 0.7
// (perfbench/README.md says why serve-hot's is 1). The program's own cost is
// untouched by the scaling (the kernel is the benchmark's code, and its
// fastest run skips preemption by the program's background work), so a
// change that makes every request 10% slower reads 10% slower. The
// gauge's own time is left out of the loop's clock, and the uncorrected
// figures are in the report line.

const (
	// gaugeRef is the kernel's time on an uncontended core of the machine
	// the benchmark was written on (Xeon, 2 vCPUs under KVM).
	gaugeRef = 120 * time.Microsecond
	// gaugeFloats is the kernel's size, gaugeReps how often a reading
	// runs it.
	gaugeFloats = 1500
	gaugeReps   = 3
)

var gaugeSink int

// gaugeKernel formats gaugeFloats fixed floats, shortest representation.
func gaugeKernel() {
	var buf [32]byte
	n := 0
	for i := 0; i < gaugeFloats; i++ {
		n += len(strconv.AppendFloat(buf[:0], float64(i)*1.37e-3+0.1, 'g', -1, 64))
	}
	gaugeSink += n
}

// readGauge is the fastest of gaugeReps kernel runs.
func readGauge() time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < gaugeReps; r++ {
		t := time.Now()
		gaugeKernel()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// gauge corrects a workload's times; sensitivity is the workload's.
type gauge struct{ sensitivity float64 }

// scale is the correction for a span between two readings.
func (g gauge) scale(before, after time.Duration) float64 {
	return math.Pow(float64(gaugeRef)/(float64(before+after)/2), g.sensitivity)
}

// timeSetup runs f and returns its time in seconds, corrected by readings
// taken just before and just after it.
func (g gauge) timeSetup(f func()) float64 {
	before := readGauge()
	t := time.Now()
	f()
	d := time.Since(t)
	return d.Seconds() * g.scale(before, readGauge())
}

// opLog is a timed loop's record for the end-to-end metrics. The loop
// runs one operation at a time; every `every` operations it closes a
// block and reads the gauge. For each operation it keeps, in order, when
// it completed on the loop's clock (since the loop began, gauge readings
// left out) and where its latencies end in lat.
type opLog struct {
	gauge    gauge
	every    int
	began    time.Time
	paused   time.Duration // spent reading the gauge
	done     []time.Duration
	latEnd   []int
	lat      []float64       // ms
	blockEnd []int           // operation count at each block's end
	readings []time.Duration // before the first block, then after each
}

// newOpLog starts a loop's clock after a first gauge reading.
func newOpLog(g gauge, every int) *opLog {
	o := &opLog{gauge: g, every: every, readings: []time.Duration{readGauge()}}
	o.began = time.Now()
	return o
}

// elapsed is the loop's clock.
func (o *opLog) elapsed() time.Duration { return time.Since(o.began) - o.paused }

// add records one completed operation and its latencies.
func (o *opLog) add(latMS ...float64) {
	o.lat = append(o.lat, latMS...)
	o.end()
}

// end records one completed operation whose latencies were appended to
// lat since the last one ended, and closes the block when it is full.
func (o *opLog) end() {
	o.done = append(o.done, o.elapsed())
	o.latEnd = append(o.latEnd, len(o.lat))
	if len(o.done)%o.every == 0 {
		o.closeBlock()
	}
}

func (o *opLog) closeBlock() {
	o.pause(func() {
		o.readings = append(o.readings, readGauge())
		o.blockEnd = append(o.blockEnd, len(o.done))
	})
}

// pause runs f off the loop's clock.
func (o *opLog) pause(f func()) {
	t := time.Now()
	f()
	o.paused += time.Since(t)
}

// finish closes a trailing partial block; the loop calls it once, when
// it stops.
func (o *opLog) finish() {
	n := 0
	if k := len(o.blockEnd); k > 0 {
		n = o.blockEnd[k-1]
	}
	if len(o.done) > n {
		o.closeBlock()
	}
}

// corrected returns the operation count, the summed corrected duration of
// the blocks and every latency, corrected by its block's scale.
func (o *opLog) corrected() (ops int, dur time.Duration, lat []float64) {
	lo := 0
	for b, hi := range o.blockEnd {
		s := o.gauge.scale(o.readings[b], o.readings[b+1])
		var from time.Duration
		latLo := 0
		if lo > 0 {
			from, latLo = o.done[lo-1], o.latEnd[lo-1]
		}
		ops += hi - lo
		dur += time.Duration(float64(o.done[hi-1]-from) * s)
		for _, l := range o.lat[latLo:o.latEnd[hi-1]] {
			lat = append(lat, l*s)
		}
		lo = hi
	}
	return ops, dur, lat
}

// rate is the corrected operations per second.
func (o *opLog) rate() float64 {
	ops, dur, _ := o.corrected()
	return float64(ops) / dur.Seconds()
}
