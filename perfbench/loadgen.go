package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// newRNG returns the generator for one named input stream of a run. Every
// input the benchmark offers is drawn from such a stream, so inputs are a
// pure function of (workload, seed, stream name).
func newRNG(workload string, seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(workload + "/" + stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// arrival is one scheduled request: its due offset from the start of the
// leg and the door (or class) it belongs to.
type arrival struct {
	at   time.Duration
	door int
}

// poisson appends the arrivals of a Poisson process at rate per second over
// dur, tagged with door, and returns the merged schedule sorted by due time.
func poisson(sched []arrival, r *rand.Rand, rate float64, dur time.Duration, door int) []arrival {
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		sched = append(sched, arrival{at: at, door: door})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at < sched[j].at })
	return sched
}

// spinWindow is how early the pacer stops sleeping and starts spinning.
// Go timers and time.Sleep wake about a millisecond late on Linux (the
// runtime's netpoller waits in whole milliseconds); a raw nanosleep on a
// locked thread wakes tens of microseconds late. Spinning the last stretch
// puts each send within a few microseconds of its due time.
const spinWindow = 200 * time.Microsecond

// waitUntil blocks until due: nanosleep to within spinWindow, then spin.
// The caller must hold its OS thread (runtime.LockOSThread), or a sleeping
// nanosleep would tie up a thread the scheduler expects back.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks
	}
	for time.Now().Before(due) {
	}
}

// pace runs the schedule open-loop from start: at each arrival's due time
// it calls dispatch, which must hand the request off without waiting for
// it. It returns each arrival's lateness — dispatch time minus due time —
// which is the generator's own error, part of every measured latency.
func pace(start time.Time, sched []arrival, dispatch func(i int, due time.Time)) []time.Duration {
	runtime.LockOSThread()
	// Unlock before returning: a goroutine that exits locked destroys its
	// thread, and a thread that dies kills the children it forked
	// (Pdeathsig).
	defer runtime.UnlockOSThread()
	lags := make([]time.Duration, len(sched))
	for i, a := range sched {
		due := start.Add(a.at)
		waitUntil(due)
		lags[i] = time.Since(due)
		dispatch(i, due)
	}
	return lags
}

// quantile returns the type-7 (linear interpolation) q-quantile of xs,
// leaving xs as it was. +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	h := q * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	if math.IsInf(xs[lo+1], 1) {
		if h == float64(lo) {
			return xs[lo]
		}
		return math.Inf(1)
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
