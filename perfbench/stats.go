package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// samples collects one timing per operation and summarises it.
type samples []time.Duration

// quantile returns the q-quantile by the nearest-rank method (q in
// [0,1]); 0 when empty.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func (s samples) count() int { return len(s) }

// distribution is a set of timings that can be summarised by quantile.
type distribution interface {
	quantile(q float64) time.Duration
	count() int
}

// histogram records durations in fixed memory with a relative
// resolution of 1/128, for the serve loop's million-odd queries:
// keeping every sample would grow the process by tens of megabytes in
// proportion to throughput, and peak_rss_mb would measure the harness.
type histogram struct {
	n       int
	buckets [256 + 56*128]uint64
}

// bucket maps v to its bucket: exact below 256 ns, else 128 buckets
// per power of two.
func bucket(v uint64) int {
	if v < 256 {
		return int(v)
	}
	e := bits.Len64(v) - 8 // v>>e is in [128, 255]
	return 256 + (e-1)*128 + int(v>>e) - 128
}

// bucketMid is the middle of bucket b's range.
func bucketMid(b int) time.Duration {
	if b < 256 {
		return time.Duration(b)
	}
	e := (b-256)/128 + 1
	m := uint64((b-256)%128 + 128)
	return time.Duration(m<<e + (uint64(1)<<e)/2)
}

func (h *histogram) add(d time.Duration) {
	h.buckets[min(bucket(uint64(max(d, 0))), len(h.buckets)-1)]++
	h.n++
}

func (h *histogram) count() int { return h.n }

// quantile returns the middle of the bucket holding the q-quantile by
// the nearest-rank method.
func (h *histogram) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(max(int(math.Ceil(q*float64(h.n))), 1))
	var seen uint64
	for b, c := range h.buckets {
		if seen += c; seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.buckets) - 1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeMark is a point-in-time reading of the Go runtime counters
// the runtime.* per-layer metrics are differences of.
type runtimeMark struct {
	mallocs uint64
	numGC   uint32
	gcCPU   float64
	allCPU  float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func markRuntime() runtimeMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return runtimeMark{mallocs: m.Mallocs, numGC: m.NumGC,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// runtimeLayer sets the runtime.* metrics for ops operations run
// between the two marks.
func runtimeLayer(l layerMetrics, from, to runtimeMark, ops int) {
	if ops == 0 {
		return
	}
	if cpu := to.allCPU - from.allCPU; cpu > 0 {
		l["runtime.gc_cpu_fraction"] = (to.gcCPU - from.gcCPU) / cpu
	}
	l["runtime.allocs_per_op"] = float64(to.mallocs-from.mallocs) / float64(ops)
	l["runtime.gc_per_kop"] = float64(to.numGC-from.numGC) * 1000 / float64(ops)
}

// liveHeapBytes forces a collection and returns the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// allocsPer runs fn n times on the calling goroutine and returns the
// mean heap allocations per call. Other goroutines must be idle.
func allocsPer(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
