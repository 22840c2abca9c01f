package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest percentile p (at most want) that
// leaves at least minBeyond samples strictly above its rank, the
// nearest-rank value at it, and how many samples lie beyond. With fewer
// than minBeyond+1 samples it falls back to want and reports the
// shortfall through beyond.
func tailPercentile(xs []float64, want float64, minBeyond int) (p, value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return want, 0, 0
	}
	s := sortedCopy(xs)
	rank := func(p float64) int { // 1-based nearest rank
		r := int(p*float64(n) + 0.999999999)
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		return r
	}
	p = want
	if n-rank(p) < minBeyond && n > minBeyond {
		p = float64(n-minBeyond) / float64(n)
	}
	r := rank(p)
	return p, s[r-1], n - r
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rtSnap is a runtime/metrics snapshot: cumulative heap allocation and
// GC work, differenced over a window.
type rtSnap struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64
	totalCPU     float64
	pauseNs      uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	val := func(i int) metrics.Value { return samples[i].Value }
	snap := rtSnap{pauseNs: ms.PauseTotalNs}
	if v := val(0); v.Kind() == metrics.KindUint64 {
		snap.allocBytes = v.Uint64()
	}
	if v := val(1); v.Kind() == metrics.KindUint64 {
		snap.allocObjects = v.Uint64()
	}
	if v := val(2); v.Kind() == metrics.KindUint64 {
		snap.gcCycles = v.Uint64()
	}
	if v := val(3); v.Kind() == metrics.KindFloat64 {
		snap.gcCPU = v.Float64()
	}
	if v := val(4); v.Kind() == metrics.KindFloat64 {
		snap.totalCPU = v.Float64()
	}
	return snap
}

// rtDelta is the difference between two snapshots; deltas of several
// windows add up.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles, pauseNs uint64
	gcCPU, totalCPU                             float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	return rtDelta{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCycles:     b.gcCycles - a.gcCycles,
		pauseNs:      b.pauseNs - a.pauseNs,
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
	}
}

func (d *rtDelta) add(o rtDelta) {
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.gcCycles += o.gcCycles
	d.pauseNs += o.pauseNs
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// gcCPUShare is the share of the windows' CPU time spent in GC.
func (d rtDelta) gcCPUShare() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// rssSampler records the resident set size of this process while it
// runs, polling /proc/self/statm, as one peak per interval: cut closes
// the current interval and pauses sampling until resume opens the next,
// so work between the timed windows (the speed gauge) is left out.
type rssSampler struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	cur    int64
	paused bool
	peaks  []float64 // MiB
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	if !s.paused && rss > s.cur {
		s.cur = rss
	}
	s.mu.Unlock()
}

// cut records the current interval's peak and pauses sampling.
func (s *rssSampler) cut() {
	rss := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.paused {
		return
	}
	if rss > s.cur {
		s.cur = rss
	}
	s.peaks = append(s.peaks, float64(s.cur)/(1<<20))
	s.paused = true
}

// resume starts the next interval at the present RSS.
func (s *rssSampler) resume() {
	rss := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = rss
	s.paused = false
}

// Stop ends sampling, closes the last interval and returns the median
// of the interval peaks in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.cut()
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.peaks)
}

// residentBytes reads the current RSS from /proc/self/statm (0 where
// it is unavailable).
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
