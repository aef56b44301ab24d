package bench

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"decafdrivers/internal/xpc"
)

// latencyHist is a lock-free log-linear latency histogram in the HDR shape:
// values below histSub land in exact one-nanosecond buckets, and each power
// of two above that splits into histSub linear sub-buckets. Quantiles report
// bucket midpoints, so the relative quantile error is bounded at
// 1/(2*histSub) (~0.2%) across the full uint64 range — tight enough that
// distinct tail quantiles of a millisecond-scale distribution never collapse
// into one bucket edge (histSubBits 5 once made p99 and p999 both report
// 117440.512µs: the shared lower edge of a ~2ms-wide bucket). Recording is
// one atomic add, so the completion observer can file latencies from the
// async service goroutine while the bench thread keeps running.
const (
	histSubBits = 8
	histSub     = 1 << histSubBits // linear sub-buckets per power of two
	histBuckets = (64 - histSubBits + 1) * histSub
)

type latencyHist struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
}

// record files one latency; negative durations clamp to zero. Safe for
// concurrent use.
func (h *latencyHist) record(d time.Duration) {
	var v uint64
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histBucket(v)].Add(1)
	h.total.Add(1)
}

func (h *latencyHist) count() uint64 { return h.total.Load() }

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	sub := int((v >> uint(exp-histSubBits)) & (histSub - 1))
	return (exp-histSubBits+1)*histSub + sub
}

// bucketValue is histBucket's inverse: the lower edge of bucket b.
func bucketValue(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	major := b / histSub
	sub := uint64(b % histSub)
	return (histSub + sub) << uint(major-1)
}

// quantile returns the q-quantile (0 < q <= 1) as the midpoint of the
// bucket holding the sample of that rank, or 0 for an empty histogram.
// Midpoints halve the worst-case error of reporting an edge and keep a
// bucket's reported value strictly inside it. Quantiles are monotone in q
// by construction, so gates may assert p50 <= p99 <= p999 unconditionally.
func (h *latencyHist) quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for b := 0; b < histBuckets; b++ {
		if c := h.counts[b].Load(); c > 0 {
			seen += c
			if seen >= rank {
				return time.Duration(bucketMidpoint(b))
			}
		}
	}
	return 0
}

// bucketMidpoint is the center of bucket b: exact one-nanosecond buckets
// report their value, wider buckets the mean of their edges. The last
// bucket has no upper edge in range and reports its lower edge.
func bucketMidpoint(b int) uint64 {
	if b+1 >= histBuckets {
		return bucketValue(b)
	}
	low, high := bucketValue(b), bucketValue(b+1)
	return low + (high-low)/2
}

// quantileUs renders a quantile in microseconds, the rows' latency unit.
func (h *latencyHist) quantileUs(q float64) float64 {
	return float64(h.quantile(q)) / float64(time.Microsecond)
}

// observeLatency hooks a fresh histogram to the runtime's completion
// observer, recording each submission's caller-visible latency — the virtual
// time from submit to completion: queue wait behind earlier work plus the
// crossing itself. Virtual time makes the percentiles deterministic for a
// given workload, so the baseline comparison may band them tightly. The
// returned func detaches the observer; call it before Shutdown.
func observeLatency(r *xpc.Runtime) (*latencyHist, func()) {
	h := new(latencyHist)
	r.SetCompletionObserver(func(_ string, queueWait, crossCost time.Duration, _ bool) {
		h.record(queueWait + crossCost)
	})
	return h, func() { r.SetCompletionObserver(nil) }
}

// gcMeter brackets a bench phase with runtime.ReadMemStats snapshots and
// reports the Go collector's activity in the window. These are wall-clock
// facts about the harness process — unlike the virtual-time columns they are
// machine-dependent, so the baseline comparison excludes them and CI only
// requires their presence.
type gcMeter struct {
	before runtime.MemStats
}

// start settles the collector before the window opens: a collection the
// set-up triggered (a testbed's DMA arena is allocated at boot) must not
// finish inside the window and be counted as the phase's own.
func (m *gcMeter) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
}

func (m *gcMeter) stop() (cycles uint64, pauseTotal, pauseMax time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := after.NumGC - m.before.NumGC
	cycles = uint64(n)
	pauseTotal = time.Duration(after.PauseTotalNs - m.before.PauseTotalNs)
	// PauseNs is a circular buffer of the last 256 pause times, most recent
	// at (NumGC+255)%256.
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		p := time.Duration(after.PauseNs[(after.NumGC-i+255)%256])
		if p > pauseMax {
			pauseMax = p
		}
	}
	return cycles, pauseTotal, pauseMax
}
