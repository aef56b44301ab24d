package main

import (
	"fmt"
	"math"
	"math/bits"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: a p99 over fewer than 1000 samples would be set by a
// handful of outliers, so it is refused rather than printed.
const minBeyond = 10

// histSub is the number of linear sub-buckets per power of two. The
// reported bucket midpoint is within 1/(2*histSub) of any sample in it.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds). Its memory is fixed, so a long run costs no more than a
// short one, and it needs no sort at the end.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	max    uint64
}

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits // >= 1
	return e*histSub + int(v>>(uint(e)-1)) - histSub
}

// bucketMid is the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := b / histSub
	lo := uint64(b%histSub+histSub) << (uint(e) - 1)
	width := uint64(1) << (uint(e) - 1)
	return float64(lo) + float64(width-1)/2
}

func (h *hist) add(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// rank returns the value of the sample at 0-based rank r.
func (h *hist) rank(r uint64) float64 {
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > r {
			return bucketMid(b)
		}
	}
	return float64(h.max)
}

// median reports the median sample; it is reported whenever there is at
// least one sample, with the sample count beside it.
func (h *hist) median() (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	return h.rank((h.n - 1) / 2), true
}

// quantile reports the q-quantile (0.5 <= q < 1) only when at least
// minBeyond samples lie above its rank; otherwise ok is false.
func (h *hist) quantile(q float64) (float64, bool) {
	if q <= 0.5 {
		return h.median()
	}
	if h.n == 0 || q >= 1 {
		return 0, false
	}
	r := uint64(math.Ceil(q*float64(h.n))) - 1
	if h.n-1-r < minBeyond {
		return 0, false
	}
	return h.rank(r), true
}

// ratio is a measured share or rate together with the count it was taken
// over, so a reader can tell 0.5 of 2 from 0.5 of 2 million.
type ratio struct {
	num, den float64
	base     string // what den counts, e.g. "crossings"
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%.0f/%.0f %s)", r.value(), r.num, r.den, r.base)
}

// median returns the middle value (the mean of the middle two for an even
// count) of a small sample set, such as the per-setup times of one run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
