package hw

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// DMAAddr is a bus address within the DMA-visible memory arena. Address zero
// is reserved and never returned by Alloc, so it can act as a null bus
// address in descriptor rings.
type DMAAddr uint32

// DMAMemory is a flat arena of memory visible to both drivers (via the
// kernel's DMA mapping interface) and device models (which read descriptor
// rings and packet buffers directly, as bus-mastering hardware would).
type DMAMemory struct {
	mu  sync.Mutex
	mem []byte
	// free lists the unallocated extents in address order, adjacent extents
	// always coalesced; Alloc carves the first that fits.
	free []dmaExtent
	// dirty is the end of the highest block ever allocated: the bytes above
	// it were never handed out and are still zero.
	dirty int
	// allocations maps base address to length, for double-free/bounds checks.
	allocations map[DMAAddr]int
}

// dmaExtent is the free byte range [start, end) of the arena.
type dmaExtent struct{ start, end int }

// NewDMAMemory creates an arena of the given size in bytes.
func NewDMAMemory(size int) *DMAMemory {
	if size <= 0 {
		panic("hw: DMA arena size must be positive")
	}
	d := &DMAMemory{
		mem:         make([]byte, size),
		allocations: make(map[DMAAddr]int),
	}
	// Keep address 0 (and a small guard region) unused.
	if size > dmaGuard {
		d.free = []dmaExtent{{dmaGuard, size}}
	}
	return d
}

// dmaGuard is the low region Alloc never hands out, so bus address 0 stays
// a null address.
const dmaGuard = 64

// Size reports the arena size in bytes.
func (d *DMAMemory) Size() int { return len(d.mem) }

// Alloc reserves size zeroed bytes, aligned to align (which must be a power
// of two; 0 means 64), in the lowest free block they fit. It returns the bus
// address of the allocation.
func (d *DMAMemory) Alloc(size, align int) (DMAAddr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("hw: DMA alloc of %d bytes", size)
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("hw: DMA alignment %d not a power of two", align)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	largest := 0
	for i, ext := range d.free {
		base := (ext.start + align - 1) &^ (align - 1)
		if base+size > ext.end {
			largest = max(largest, ext.end-base)
			continue
		}
		// Carve [base, base+size) out of the extent: the alignment gap in
		// front and the tail behind stay free.
		var rest []dmaExtent
		if ext.start < base {
			rest = append(rest, dmaExtent{ext.start, base})
		}
		if base+size < ext.end {
			rest = append(rest, dmaExtent{base + size, ext.end})
		}
		d.free = slices.Replace(d.free, i, i+1, rest...)
		// A block comes back zeroed, as a fresh one always did: recycled
		// space must not leak a freed ring's stale descriptors.
		if base < d.dirty {
			clear(d.mem[base:min(base+size, d.dirty)])
		}
		d.dirty = max(d.dirty, base+size)
		addr := DMAAddr(base)
		d.allocations[addr] = size
		return addr, nil
	}
	return 0, fmt.Errorf("hw: DMA arena exhausted (%d bytes requested, largest free block %d)", size, largest)
}

// Free releases an allocation made by Alloc, returning its bytes to the
// free list (merged with any free neighbours) for later allocations.
func (d *DMAMemory) Free(addr DMAAddr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	size, ok := d.allocations[addr]
	if !ok {
		return fmt.Errorf("hw: DMA free of unallocated address %#x", uint32(addr))
	}
	delete(d.allocations, addr)
	start, end := int(addr), int(addr)+size
	i, _ := slices.BinarySearchFunc(d.free, start, func(e dmaExtent, s int) int { return cmp.Compare(e.start, s) })
	// Coalesce with the extent ending at start and the one starting at end.
	lo, hi := i, i
	if i > 0 && d.free[i-1].end == start {
		lo = i - 1
		start = d.free[lo].start
	}
	if i < len(d.free) && d.free[i].start == end {
		end = d.free[i].end
		hi = i + 1
	}
	d.free = slices.Replace(d.free, lo, hi, dmaExtent{start, end})
	return nil
}

// InUse reports the number of live allocations (for leak tests).
func (d *DMAMemory) InUse() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.allocations)
}

func (d *DMAMemory) checkRange(addr DMAAddr, n int) {
	if int(addr)+n > len(d.mem) || n < 0 {
		panic(fmt.Sprintf("hw: DMA access [%#x,%#x) outside arena of %d bytes",
			uint32(addr), int(addr)+n, len(d.mem)))
	}
}

// Read copies n bytes starting at addr into a fresh slice.
func (d *DMAMemory) Read(addr DMAAddr, n int) []byte {
	d.checkRange(addr, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, n)
	copy(out, d.mem[addr:int(addr)+n])
	return out
}

// ReadInto copies len(dst) bytes starting at addr into dst.
func (d *DMAMemory) ReadInto(addr DMAAddr, dst []byte) {
	d.checkRange(addr, len(dst))
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(dst, d.mem[addr:int(addr)+len(dst)])
}

// Write copies src into the arena starting at addr.
func (d *DMAMemory) Write(addr DMAAddr, src []byte) {
	d.checkRange(addr, len(src))
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(d.mem[addr:int(addr)+len(src)], src)
}

// Read8 reads one byte at addr.
func (d *DMAMemory) Read8(addr DMAAddr) uint8 {
	d.checkRange(addr, 1)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem[addr]
}

// Write8 writes one byte at addr.
func (d *DMAMemory) Write8(addr DMAAddr, v uint8) {
	d.checkRange(addr, 1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mem[addr] = v
}

// Read16 reads a little-endian 16-bit value at addr.
func (d *DMAMemory) Read16(addr DMAAddr) uint16 {
	d.checkRange(addr, 2)
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint16(d.mem[addr:])
}

// Write16 writes a little-endian 16-bit value at addr.
func (d *DMAMemory) Write16(addr DMAAddr, v uint16) {
	d.checkRange(addr, 2)
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint16(d.mem[addr:], v)
}

// Read32 reads a little-endian 32-bit value at addr.
func (d *DMAMemory) Read32(addr DMAAddr) uint32 {
	d.checkRange(addr, 4)
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint32(d.mem[addr:])
}

// Write32 writes a little-endian 32-bit value at addr.
func (d *DMAMemory) Write32(addr DMAAddr, v uint32) {
	d.checkRange(addr, 4)
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint32(d.mem[addr:], v)
}

// Read64 reads a little-endian 64-bit value at addr.
func (d *DMAMemory) Read64(addr DMAAddr) uint64 {
	d.checkRange(addr, 8)
	d.mu.Lock()
	defer d.mu.Unlock()
	return binary.LittleEndian.Uint64(d.mem[addr:])
}

// Write64 writes a little-endian 64-bit value at addr.
func (d *DMAMemory) Write64(addr DMAAddr, v uint64) {
	d.checkRange(addr, 8)
	d.mu.Lock()
	defer d.mu.Unlock()
	binary.LittleEndian.PutUint64(d.mem[addr:], v)
}
