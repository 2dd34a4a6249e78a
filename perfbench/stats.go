package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// clockBase anchors nanotime: time.Since on a monotonic reading costs one
// clock read, half of what time.Now costs.
var clockBase = time.Now()

// nanotime returns monotonic nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// median returns the median of xs (0 for none). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// Runtime metric names read around runs.
const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mLiveHeap = "/gc/heap/live:bytes"
	mSchedLat = "/sched/latencies:seconds"
)

// rtSnapshot is one reading of the process counters a run reports.
type rtSnapshot struct {
	gcCPU     float64
	gcCycles  uint64
	allocs    uint64
	allocByte uint64
	userCPU   float64
	sched     *metrics.Float64Histogram
}

// readRuntime reads the counters. It allocates, so call it outside timed
// loops.
func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mGCCycles}, {Name: mSchedLat}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSnapshot{
		gcCPU:     s[0].Value.Float64(),
		gcCycles:  s[1].Value.Uint64(),
		allocs:    ms.Mallocs,
		allocByte: ms.TotalAlloc,
		sched:     s[2].Value.Float64Histogram(),
		userCPU:   float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6,
	}
}

// schedWaitP50 returns the median scheduling latency, in seconds, of the
// goroutine wake-ups between two snapshots, interpolated linearly inside
// the runtime histogram's bucket.
func schedWaitP50(before, after rtSnapshot) float64 {
	a, b := after.sched, before.sched
	var total uint64
	delta := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		delta[i] = a.Counts[i] - b.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	var seen float64
	for i, c := range delta {
		if c == 0 || seen+float64(c) < half {
			seen += float64(c)
			continue
		}
		lo, hi := a.Buckets[i], a.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(half-seen)/float64(c)
	}
	return a.Buckets[len(a.Buckets)-1]
}

// heapSampler tracks the peak live heap; sample does not allocate.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: mLiveHeap}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}
