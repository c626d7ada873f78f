// Package cache implements a set-associative LRU cache simulator used for
// the per-core L1 and per-cluster L2 caches of the big.LITTLE machine model.
// It supplies the hit/miss outcomes that drive both the timing model (miss
// latency) and the hardware-phase performance counters (CMA, CMI).
package cache

import (
	"fmt"
	"math"
)

// Level identifies where an access was satisfied.
type Level uint8

const (
	Miss Level = iota // DRAM
	L1
	L2
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	}
	return "DRAM"
}

// Cache is one set-associative LRU cache. The tag store is one flat array:
// set s owns tags[s*ways : (s+1)*ways], kept in recency order (index 0 is
// the most recently used), and fill[s] counts its resident lines. A tag is
// resident exactly when it sits inside its set's fill, so there is no valid
// bit and Invalidate only clears the counts.
type Cache struct {
	tags      []uint64
	fill      []uint8
	ways      int
	lineShift uint
	setMask   uint64

	hits   uint64
	misses uint64
}

// New builds a cache of sizeBytes with the given associativity and line
// size. Size, ways and line size must make a power-of-two number of sets,
// and ways is at most 255 (the per-set fill count is one byte).
func New(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", sizeBytes, ways, lineBytes)
	}
	if ways > math.MaxUint8 {
		return nil, fmt.Errorf("cache: %d ways exceeds the maximum of %d", ways, math.MaxUint8)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	}
	numLines := sizeBytes / lineBytes
	if numLines == 0 || numLines%ways != 0 {
		return nil, fmt.Errorf("cache: %dB/%d-way/%dB-line does not divide evenly", sizeBytes, ways, lineBytes)
	}
	numSets := numLines / ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets not a power of two", numSets)
	}
	c := &Cache{
		tags:    make([]uint64, numSets*ways),
		fill:    make([]uint8, numSets),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
	for lineBytes > 1 {
		lineBytes >>= 1
		c.lineShift++
	}
	return c, nil
}

// MustNew is New that panics on bad geometry (programmer error).
func MustNew(sizeBytes, ways, lineBytes int) *Cache {
	c, err := New(sizeBytes, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up byteAddr, updating LRU state, and reports whether it hit.
// On miss the line is installed (allocate-on-miss for reads and writes).
func (c *Cache) Access(byteAddr uint64) bool {
	tag := byteAddr >> c.lineShift
	s := tag & c.setMask
	base := int(s) * c.ways
	n := int(c.fill[s])
	set := c.tags[base : base+n : base+c.ways]
	for i, t := range set {
		if t == tag {
			// Move to front (most recently used).
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.hits++
			return true
		}
	}
	c.misses++
	// Install at front, evicting LRU (the last element) if full.
	if n < c.ways {
		n++
		c.fill[s] = uint8(n)
		set = set[:n]
	}
	copy(set[1:], set[:n-1])
	set[0] = tag
	return false
}

// Probe reports whether byteAddr is resident without touching LRU state or
// counters.
func (c *Cache) Probe(byteAddr uint64) bool {
	tag := byteAddr >> c.lineShift
	s := tag & c.setMask
	base := int(s) * c.ways
	for _, t := range c.tags[base : base+int(c.fill[s])] {
		if t == tag {
			return true
		}
	}
	return false
}

// Stats returns cumulative hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the counters without invalidating contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Invalidate empties the cache (e.g., power-gating a core or cluster).
func (c *Cache) Invalidate() { clear(c.fill) }

// Hierarchy is a two-level cache path (a core's L1 backed by its cluster's
// shared L2). DRAM is implicit below L2.
type Hierarchy struct {
	L1c *Cache
	L2c *Cache // shared; may be nil for L1-only configurations
}

// Access walks the hierarchy and returns the level that satisfied the
// access.
func (h *Hierarchy) Access(byteAddr uint64) Level {
	if h.L1c.Access(byteAddr) {
		return L1
	}
	if h.L2c != nil && h.L2c.Access(byteAddr) {
		return L2
	}
	return Miss
}
