package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors nanotime.
var epoch = time.Now()

// nanotime reads the monotonic clock, in ns since the process started.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuTime is the CPU time the process has used so far, all threads (the
// garbage collector's included), user plus system. On a virtual machine
// it leaves out the time the host gave this vCPU to someone else (steal),
// which wall time counts: on a shared 2-vCPU host, steal moved the wall
// time of a fixed simulation by up to a third while its CPU time moved by
// a few percent.
func cpuTime() time.Duration { return clockTime(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPUTime is the CPU time of the calling thread. It times set-up,
// which runs on one goroutine and is short enough that a concurrent
// garbage collection on another thread would swamp it; the caller locks
// its goroutine to the thread.
func threadCPUTime() time.Duration { return clockTime(3) } // CLOCK_THREAD_CPUTIME_ID

// clockTime reads a clock with clock_gettime, in nanoseconds (getrusage
// counts in microseconds).
func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(errno) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupMin is the least total time spent on set-up samples, so a set-up
// of a fraction of a millisecond is taken over many repetitions.
const setupMin = 200 * time.Millisecond

// setupMedian pads samples (seconds) with further calls of once until
// there are at least minSetups of them and they add up to setupMin, and
// returns their median and count.
func setupMedian(samples []float64, once func() (time.Duration, error)) (float64, int, error) {
	var total float64
	for _, s := range samples {
		total += s
	}
	for len(samples) < minSetups || total < setupMin.Seconds() {
		d, err := once()
		if err != nil {
			return 0, 0, err
		}
		samples = append(samples, d.Seconds())
		total += d.Seconds()
	}
	return median(samples), len(samples), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
