package main

import (
	"math"
	"strings"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1 << 20, 987654321, 1 << 40} {
		mid := bucketMid(bucketOf(v))
		if err := math.Abs(mid-float64(v)) / math.Max(1, float64(v)); err > 1.0/histSub {
			t.Errorf("value %d lands in bucket with midpoint %.1f (relative error %.4f)", v, mid, err)
		}
	}
	for b := 1; b < histBuckets-histSub; b++ {
		if bucketMid(b) <= bucketMid(b-1) {
			t.Fatalf("bucket midpoints not increasing at %d", b)
		}
	}
}

// TestQuantileNeedsTenBeyond pins the reporting rule: a tail percentile is
// reported only with at least ten samples above it, the median always.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	var h hist
	for i := 1; i <= 999; i++ {
		h.add(uint64(i))
	}
	if _, ok := h.quantile(0.99); ok {
		t.Fatal("p99 of 999 samples reported with only 9 samples beyond it")
	}
	h.add(1000)
	v, ok := h.quantile(0.99)
	if !ok {
		t.Fatal("p99 of 1000 samples (10 beyond) refused")
	}
	if math.Abs(v-990) > 990.0/histSub {
		t.Fatalf("p99 = %v, want ~990", v)
	}
	if _, ok := h.quantile(0.999); ok {
		t.Fatal("p99.9 of 1000 samples reported with nothing beyond it")
	}

	var small hist
	for i := 0; i < 14; i++ {
		small.add(uint64(100 + i))
	}
	if m, ok := small.median(); !ok || m < 100 || m > 113 {
		t.Fatalf("median of 14 samples = %v, %v", m, ok)
	}
	if _, ok := small.quantile(0.9); ok {
		t.Fatal("p90 of 14 samples reported")
	}
	var empty hist
	if _, ok := empty.median(); ok {
		t.Fatal("median of no samples reported")
	}
}

// TestRatioCarriesBase: every ratio prints the count it was taken over.
func TestRatioCarriesBase(t *testing.T) {
	r := ratio{num: 3, den: 12, base: "crossings"}
	if r.value() != 0.25 {
		t.Fatalf("value = %v", r.value())
	}
	if s := r.String(); !strings.Contains(s, "3/12 crossings") {
		t.Fatalf("ratio %q does not carry its base", s)
	}
	if (ratio{base: "calls"}).value() != 0 {
		t.Fatal("a ratio over an empty base must read 0, not NaN")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}
