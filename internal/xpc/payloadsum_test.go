//go:build unix

package xpc

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/xdr"
)

// TestPayloadSumKnownAnswers pins payloadSum to XXH64 with seed 0: the empty
// input, a short input (tail bytes only) and a 39-byte input (one 32-byte
// stripe plus a 4-byte and a 3-byte tail).
func TestPayloadSumKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := payloadSum([]byte(tc.in)); got != tc.want {
			t.Errorf("payloadSum(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// payloadSumLengths covers every stripe/tail combination up to two stripes
// plus the IMIX frame sizes the data path carries.
func payloadSumLengths() []int {
	var ns []int
	for n := 0; n <= 64; n++ {
		ns = append(ns, n)
	}
	return append(ns, 60, 590, 1514)
}

// TestPayloadSumDetectsEveryByteFlip: changing any single byte of a payload
// changes its sum, at every offset of every covered length — the property
// the kernel side relies on to catch a worker that saw different bytes.
func TestPayloadSumDetectsEveryByteFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range payloadSumLengths() {
		b := make([]byte, n)
		rng.Read(b)
		want := payloadSum(b)
		for off := 0; off < n; off++ {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				b[off] ^= mask
				if payloadSum(b) == want {
					t.Fatalf("len %d: flipping byte %d with %#x left the sum at %#x", n, off, mask, want)
				}
				b[off] ^= mask
			}
		}
		if payloadSum(b) != want {
			t.Fatalf("len %d: sum not deterministic", n)
		}
	}
}

// TestAckSumsWorkerVisibleBytes: submitAck and callAck hash the bytes the
// worker reads through its own mapping, so a mapping that differs from what
// the kernel side staged by one byte yields a different Aux — the mismatch
// the kernel side turns into a retired epoch.
func TestAckSumsWorkerVisibleBytes(t *testing.T) {
	const slotSize, slots = 2048, 4
	staged := make([]byte, 1514)
	rand.New(rand.NewSource(2)).Read(staged)
	slot := xdr.SlotDescriptor{Index: 2, Length: uint32(len(staged)), Generation: 1}
	window := func(flip int) []byte {
		mem := make([]byte, slotSize*slots)
		off := int(slot.Index) * slotSize
		copy(mem[off:], staged)
		if flip >= 0 {
			mem[off+flip] ^= 0x01
		}
		return mem
	}
	var geom atomic.Uint64
	geom.Store(uint64(slots)<<32 | slotSize)
	st := registry.NewState()
	acks := map[string]func(mem []byte) xdr.Frame{
		"submitAck": func(mem []byte) xdr.Frame {
			return submitAck(xdr.Frame{Kind: xdr.FrameSubmit, ID: 1, Slot: slot}, mem, &geom)
		},
		"callAck": func(mem []byte) xdr.Frame {
			skip := 0
			return callAck(xdr.Frame{Kind: xdr.FrameCall, ID: 1, Name: "xpctest_count", Slot: slot}, mem, &geom, st, &skip, nil)
		},
	}
	for name, ack := range acks {
		same := ack(window(-1))
		if same.Status != wireStatusOK || same.Aux != payloadSum(staged) {
			t.Fatalf("%s over the staged bytes: status %d Aux %#x, want ok and %#x", name, same.Status, same.Aux, payloadSum(staged))
		}
		for _, flip := range []int{0, 700, len(staged) - 1} {
			t.Run(fmt.Sprintf("%s/flip%d", name, flip), func(t *testing.T) {
				if got := ack(window(flip)); got.Aux == same.Aux {
					t.Fatalf("Aux %#x unchanged with byte %d of the mapping flipped", got.Aux, flip)
				}
			})
		}
	}
}

var payloadSumSink uint64

// BenchmarkPayloadSum measures the checksum at the IMIX frame sizes.
func BenchmarkPayloadSum(b *testing.B) {
	for _, n := range []int{60, 590, 1514} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(buf)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for b.Loop() {
				payloadSumSink = payloadSum(buf)
			}
		})
	}
}
