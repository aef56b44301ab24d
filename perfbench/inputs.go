package main

import (
	"encoding/binary"
	"math/rand/v2"
	"time"
)

// Inputs are generated from the seed alone; the programs under test only
// ever see the frames, rates and kill offsets built here.

// poolSize is the number of distinct frame templates per direction. Frame
// seq reuses template seq%poolSize, which is safe because far fewer than
// poolSize frames are ever in flight (a 32-frame TX queue plus a few
// in-flight flushes); a reuse bug would show as a content mismatch.
const poolSize = 4096

// seqOff is where a frame carries its sequence number, right after the
// 14-byte Ethernet header.
const (
	ethHeader = 14
	seqOff    = ethHeader
	minFrame  = 60
)

// IMIX is the simple Internet mix: 7 small, 4 medium and 1 large frame in
// every 12, so both per-frame and per-byte costs show.
var imix = [...]struct {
	size, weight int
}{{60, 7}, {590, 4}, {1514, 1}}

// framePool holds poolSize frame templates of seeded sizes and contents.
type framePool struct {
	frames [poolSize][]byte
}

func newFramePool(rng *rand.Rand, dst, src [6]byte) *framePool {
	// The mix is exact (7:4:1 over the pool); the seed decides the order
	// and the contents, so per-byte work does not drift with the seed.
	var sizes []int
	total := 0
	for _, m := range imix {
		total += m.weight
	}
	for len(sizes) < poolSize {
		for _, m := range imix {
			for i := 0; i < m.weight*poolSize/total && len(sizes) < poolSize; i++ {
				sizes = append(sizes, m.size)
			}
		}
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	p := &framePool{}
	for i, size := range sizes {
		f := make([]byte, size)
		copy(f[0:6], dst[:])
		copy(f[6:12], src[:])
		binary.BigEndian.PutUint16(f[12:14], 0x0800)
		for j := ethHeader; j < size; j += 8 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			copy(f[j:], w[:])
		}
		p.frames[i] = f
	}
	return p
}

// stamp writes seq into its template and returns the frame.
func (p *framePool) stamp(seq uint64) []byte {
	f := p.frames[seq%poolSize]
	binary.LittleEndian.PutUint64(f[seqOff:], seq)
	return f
}

// matches reports whether got is frame seq as generated: same length, same
// sequence number, same bytes.
func (p *framePool) matches(seq uint64, got []byte) bool {
	want := p.frames[seq%poolSize]
	if len(got) != len(want) || len(got) < seqOff+8 || frameSeq(got) != seq {
		return false
	}
	return string(got[:seqOff]) == string(want[:seqOff]) &&
		string(got[seqOff+8:]) == string(want[seqOff+8:])
}

func frameSeq(f []byte) uint64 {
	if len(f) < seqOff+8 {
		return ^uint64(0)
	}
	return binary.LittleEndian.Uint64(f[seqOff:])
}

// wireTime is a frame's time on a 1 Gb/s wire: 8 ns per byte.
func wireTime(bytes int) time.Duration { return time.Duration(bytes) * 8 * time.Nanosecond }

// pcmRates are the sample rates a track change picks from.
var pcmRates = [...]int{22050, 44100, 48000}

// rateSchedule returns n seeded sample rates; cycle i uses entry i%n.
func rateSchedule(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = pcmRates[rng.IntN(len(pcmRates))]
	}
	return out
}

// killSchedule returns the frame offsets at which the worker is killed:
// kills of them, each gap drawn uniformly from [minGap, maxGap] frames.
func killSchedule(rng *rand.Rand, kills, minGap, maxGap int) []uint64 {
	out := make([]uint64, kills)
	var at uint64
	for i := range out {
		at += uint64(minGap + rng.IntN(maxGap-minGap+1))
		out[i] = at
	}
	return out
}

// newRand derives an independent stream per input kind from the seed, so
// adding one kind of input never shifts another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
