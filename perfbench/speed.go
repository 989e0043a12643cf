package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The host a run lands on does not run the program at one speed. On a
// shared 2-vCPU VM the same trial took 3.8 ms of CPU time in one second
// and 5.7 ms in the next, and whole runs took 1.5× longer than runs an
// hour before, while the hypervisor stole almost no time; branchy code
// such as JSON and sorting slows with the trial, a dependent chain of
// ALU operations does not. Process CPU time removes the time stolen or
// spent waiting for a CPU, but not this slowdown, so the benchmark also
// measures the host's speed as it goes: every calEvery it sorts a fixed
// array and times the sort, and each sample is scaled by how much faster
// or slower that sort ran around it than on the reference host.
const (
	calEvery  = 100 * time.Millisecond // how often the sort is timed
	calAround = 500 * time.Millisecond // calibrations within this of a sample scale it
	calLen    = 1 << 15                // ints sorted per calibration (256 KiB)
	// calRef is the sort's CPU time on the reference host (a 2-vCPU
	// Intel Xeon VM) when it ran fast: the speed the reported times are
	// scaled to.
	calRef = 3 * time.Millisecond
)

// speedMeter times the calibration sort along a run.
type speedMeter struct {
	start    time.Time
	at, took []time.Duration // when each calibration ran, and its CPU time
	src, buf []int
}

func newSpeedMeter() *speedMeter {
	r := rand.New(rand.NewPCG(1, 2)) // fixed: the sort must be the same work on every run
	m := &speedMeter{start: time.Now(), src: make([]int, calLen), buf: make([]int, calLen)}
	for i := range m.src {
		m.src[i] = r.Int()
	}
	m.calibrate()
	return m
}

// now is the time since the meter started.
func (m *speedMeter) now() time.Duration { return time.Since(m.start) }

// tick calibrates when calEvery has passed since the last calibration.
func (m *speedMeter) tick() {
	if m.now()-m.at[len(m.at)-1] >= calEvery {
		m.calibrate()
	}
}

// calibrate times one sort of the fixed array in the CPU time of the
// thread that runs it.
func (m *speedMeter) calibrate() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	copy(m.buf, m.src)
	t0 := threadCPUNow()
	sort.Ints(m.buf)
	d := threadCPUNow() - t0
	m.at = append(m.at, m.now())
	m.took = append(m.took, d)
}

// scale is the factor that brings a CPU time measured at run time at to
// the reference speed: calRef over the median sort time of the
// calibrations within calAround of at, or of the nearest one.
func (m *speedMeter) scale(at time.Duration) float64 {
	lo, _ := slices.BinarySearch(m.at, at-calAround)
	hi, _ := slices.BinarySearch(m.at, at+calAround)
	if lo == hi { // none that close: the nearest one
		if hi == len(m.at) || hi > 0 && at-m.at[hi-1] < m.at[hi]-at {
			hi--
		}
		lo, hi = hi, hi+1
	}
	return float64(calRef) / float64(quantileDur(m.took[lo:hi], 0.5))
}

// sample is one timed piece of work: when it ran, and its process CPU
// and wall time.
type sample struct {
	at        time.Duration
	cpu, wall time.Duration
}

// measure runs f and returns its sample, calibrating first when due.
func (m *speedMeter) measure(f func()) sample {
	m.tick()
	w0, c0 := time.Now(), cpuNow()
	f()
	s := sample{cpu: cpuNow() - c0, wall: time.Since(w0)}
	s.at = w0.Sub(m.start) + s.wall/2
	return s
}

// scaled returns the samples' CPU times at the reference speed, in
// milliseconds.
func (m *speedMeter) scaled(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = durationMS(s.cpu) * m.scale(s.at)
	}
	return out
}
