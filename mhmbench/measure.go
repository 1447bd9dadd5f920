package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// durHist is an exact duration histogram: one bucket per nanosecond up
// to its range, plus a list of the rare samples beyond it. Recording is
// O(1) and allocation-free inside the range, and quantiles are exact
// order statistics.
type durHist struct {
	buckets []uint32
	over    []int64
	n       int64
}

func newDurHist(rng time.Duration) *durHist {
	return &durHist{buckets: make([]uint32, int(rng))}
}

func (h *durHist) add(d time.Duration) {
	h.n++
	if d >= 0 && int64(d) < int64(len(h.buckets)) {
		h.buckets[d]++
		return
	}
	h.over = append(h.over, int64(d))
}

// quantile returns the nearest-rank q-quantile in nanoseconds.
func (h *durHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += int64(c)
		if seen >= rank {
			return float64(i)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return float64(h.over[rank-seen-1])
}

// quantile returns the linearly interpolated q-quantile of xs (sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// allocCounter reads the process's cumulative heap allocation through
// runtime/metrics; the sample buffer is reused, so a read allocates
// nothing.
type allocCounter []metrics.Sample

func newAllocCounter() allocCounter { return allocCounter{{Name: "/gc/heap/allocs:bytes"}} }

func (a allocCounter) bytes() float64 {
	metrics.Read(a)
	return float64(a[0].Value.Uint64())
}

// liveHeapMB returns the heap a collection marks live, in MB: the memory
// the objects still referenced retain. It collects twice because
// sync.Pool contents survive the first collection; the second leaves
// only what is reachable, so the figure does not depend on when the
// last collection happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// since is the elapsed wall time in nanoseconds as a float.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }
