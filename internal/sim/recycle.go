package sim

import (
	"sync"

	"astro/internal/cache"
	"astro/internal/hw"
	"astro/internal/ir"
)

// Machine buffer recycling. A cell builds a machine, runs it for a few
// milliseconds and drops it, and most of what construction allocates is
// the cache tag arrays and the backed memory prefix. Execute hands those
// back to sync.Pools keyed by size when the run ends, and the next machine
// of the same geometry takes them. The pools are emptied by the garbage
// collector, so an idle process pins nothing (DESIGN.md, "Machine buffer
// lifecycle"). Reuse is byte-safe for two reasons:
//
//   - a taken cache is Invalidated: a set's tags past its fill count are
//     never read, so clearing the fill counts restores a new cache;
//   - a taken memory buffer is cleared over the length it is given, and
//     growMem clears each extension into spare capacity before exposing it.

// Execute builds a machine for mod on plat from prog (nil compiles mod
// through the cache, as NewWithProgram does), runs it to completion and
// returns its result. The machine's cache and memory buffers go back to
// the pools for the next machine, so a caller that only wants the result
// should use Execute rather than New and Run.
func Execute(mod *ir.Module, plat *hw.Platform, opts Options, prog *Program) (*Result, error) {
	m, err := NewWithProgram(mod, plat, opts, prog)
	if err != nil {
		return nil, err
	}
	defer m.release()
	return m.Run()
}

// release returns the machine's caches and memory buffer to the pools and
// drops its references to them. The machine must not be used afterwards.
func (m *Machine) release() {
	for _, c := range m.cores {
		cachePools.pool(l1Geom(m.plat)).Put(c.hier.L1c)
		c.hier = cache.Hierarchy{}
	}
	for ct, c := range m.l2 {
		cachePools.pool(l2Geom(m.plat, ct)).Put(c)
	}
	m.l2 = nil
	// A buffer that grew past twice its first length backs spawned threads'
	// stacks and can run to megabytes. Pooled, it would stay live across a
	// collection waiting for another machine that large, and the heap goal
	// and peak RSS would grow with it, so the collector takes it instead.
	if buf, n := m.mem, m.firstMemLen(); int64(cap(buf)) <= 2*n {
		memPools.pool(n).Put(&buf)
	}
	m.mem = nil
}

type cacheGeom struct{ size, ways, line int }

func l1Geom(plat *hw.Platform) cacheGeom {
	return cacheGeom{plat.L1KB * 1024, plat.L1Ways, plat.LineBytes}
}

func l2Geom(plat *hw.Platform, ct hw.CoreType) cacheGeom {
	return cacheGeom{plat.L2KB[ct] * 1024, plat.L2Ways, plat.LineBytes}
}

// keyedPools is a sync.Pool per key. A map under a mutex rather than a
// sync.Map: the key then needs no boxing, so an empty pool costs
// construction no allocation.
type keyedPools[K comparable] struct {
	mu sync.Mutex
	m  map[K]*sync.Pool
}

func (ps *keyedPools[K]) pool(k K) *sync.Pool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p := ps.m[k]
	if p == nil {
		if ps.m == nil {
			ps.m = map[K]*sync.Pool{}
		}
		p = new(sync.Pool)
		ps.m[k] = p
	}
	return p
}

// cachePools holds *cache.Cache values by geometry; memPools holds memory
// buffers by the first prefix length (firstMemLen) of the machine that
// released them, so every pooled buffer fits the machine that takes it.
var (
	cachePools keyedPools[cacheGeom]
	memPools   keyedPools[int64]
)

// takeCache returns an empty cache of geometry g, recycled when one is
// pooled.
func takeCache(g cacheGeom) *cache.Cache {
	if c, _ := cachePools.pool(g).Get().(*cache.Cache); c != nil {
		c.Invalidate()
		c.ResetStats()
		return c
	}
	return cache.MustNew(g.size, g.ways, g.line)
}

// takeMem returns a zeroed buffer for a machine's first prefix of n cells,
// recycled when one is pooled.
func takeMem(n int64) []uint64 {
	if p, _ := memPools.pool(n).Get().(*[]uint64); p != nil {
		buf := (*p)[:n]
		clear(buf)
		return buf
	}
	return make([]uint64, n)
}
