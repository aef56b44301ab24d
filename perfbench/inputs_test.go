package main

import (
	"slices"
	"testing"
)

// TestInputsFollowTheSeed: the same seed gives the same frames, rates and
// kill offsets; another seed reorders them but keeps the IMIX composition.
func TestInputsFollowTheSeed(t *testing.T) {
	dst, src := [6]byte{1}, [6]byte{2}
	a := newFramePool(newRand(1, 1), dst, src)
	b := newFramePool(newRand(1, 1), dst, src)
	c := newFramePool(newRand(2, 1), dst, src)
	sizes := func(p *framePool) map[int]int {
		m := map[int]int{}
		for _, f := range p.frames {
			m[len(f)]++
		}
		return m
	}
	same, differ := true, false
	for i := range a.frames {
		same = same && string(a.frames[i]) == string(b.frames[i])
		differ = differ || string(a.frames[i]) != string(c.frames[i])
	}
	if !same || !differ {
		t.Fatalf("frames: same seed equal %v, other seed different %v", same, differ)
	}
	ma, mc := sizes(a), sizes(c)
	if len(ma) != len(imix) || ma[60] != mc[60] || ma[590] != mc[590] || ma[1514] != mc[1514] {
		t.Fatalf("IMIX composition depends on the seed: %v vs %v", ma, mc)
	}
	if ma[60] < 7*ma[1514] || ma[590] < 4*ma[1514] {
		t.Fatalf("composition %v is not 7:4:1", ma)
	}
	f := a.stamp(12345)
	if frameSeq(f) != 12345 || !a.matches(12345, f) || a.matches(12346, f) {
		t.Fatal("a stamped frame does not carry its sequence number")
	}
	if !slices.Equal(rateSchedule(newRand(3, 3), 64), rateSchedule(newRand(3, 3), 64)) ||
		!slices.Equal(killSchedule(newRand(3, 4), 20, 10, 20), killSchedule(newRand(3, 4), 20, 10, 20)) {
		t.Fatal("rates or kill offsets differ for one seed")
	}
	k := killSchedule(newRand(3, 4), 20, 10, 20)
	for i := 1; i < len(k); i++ {
		if gap := k[i] - k[i-1]; gap < 10 || gap > 20 {
			t.Fatalf("kill gap %d outside [10, 20]", gap)
		}
	}
}
