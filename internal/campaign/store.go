package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the content-addressed result store: canonical result bytes keyed
// by job content hash. Reads hit the memory tier first, then (when the
// store was opened with a directory) the disk tier. The disk tier is what
// makes a warm re-run of a campaign across process restarts perform zero
// fresh simulations.
//
// The disk tier is 1–256 shards (shard.go). The plain layout is the
// one-shard case rooted at dir; a directory holding an INDEX.json manifest
// has N shards under dir/shard-XX. Either way a shard lays its entries out
// as <key[:2]>/<key>.json — the two-character fan-out keeps directories
// small for hundred-thousand-job campaigns. The layout is read from disk
// when the store opens, and the open scans every shard once: that scan
// seeds the disk accounting, so the store knows every key on disk (Len,
// Put dedup, the byte cap) from its first call.
//
// Opened with a byte cap (StoreConfig) the store is production-bounded:
// each shard holds at most its share of MaxBytes, evicting least-recently-
// used unpinned entries (the whole file — an entry is always either fully
// present or absent), and the memory tier is a byte-bounded hot cache
// rather than an uncapped one. Eviction is safe by construction: a
// content-addressed entry can only be absent (forcing a recomputation that
// produces the identical bytes) or byte-for-byte correct, never stale or
// torn (DESIGN.md invariant 11). Pinned keys — see PinLedger — are skipped
// by eviction, which is how trained-agent snapshots referenced by live
// campaigns survive any pressure.
type Store struct {
	hot    *hotCache  // memory tier; uncapped unless the store is bounded
	pins   *PinLedger // consulted by every shard's eviction
	dir    string
	mask   uint8    // shard index = first key byte & mask
	shards []*shard // disk tier; nil for a memory-only store

	hits, misses, puts atomic.Uint64

	gaugeMu sync.Mutex // serialises the store-wide occupancy gauge updates
}

// NewMemStore builds a memory-only store.
func NewMemStore() *Store {
	return &Store{hot: newHotCache(0), pins: NewPinLedger()}
}

// NewStore opens an unbounded store backed by dir (created if missing) in
// whichever layout dir holds; an empty dir means memory-only.
func NewStore(dir string) (*Store, error) {
	return NewStoreWith(dir, StoreConfig{})
}

// NewStoreWith is NewStore with a StoreConfig: byte caps, and the shard
// count of a fresh directory. Caps require a disk tier: a memory-only
// store's memory is authoritative storage, and evicting from it would lose
// results rather than spill them.
func NewStoreWith(dir string, cfg StoreConfig) (*Store, error) {
	if dir == "" {
		if cfg.bounded() {
			return nil, fmt.Errorf("campaign: store caps need a disk tier (-cache); a memory-only store cannot evict without losing results")
		}
		return NewMemStore(), nil
	}
	want, err := cfg.shardCount()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	// The root scan doubles as the plain layout's only shard scan, and as
	// the check that a fresh sharded layout does not shadow plain entries.
	plain, err := scanShard(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := shardDirs(dir, want, len(plain) > 0)
	if err != nil {
		return nil, err
	}
	n := len(dirs)
	capBytes := cfg.MaxBytes / int64(n)
	if cfg.MaxBytes > 0 && capBytes == 0 {
		capBytes = 1 // a cap below one byte per shard still bounds, never unbounds
	}
	s := &Store{hot: newHotCache(cfg.effHotBytes()), pins: NewPinLedger(), dir: dir, mask: uint8(n - 1)}
	var victims []string
	for i, sub := range dirs {
		files := plain
		if sub != dir {
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return nil, fmt.Errorf("campaign: store dir: %w", err)
			}
			if files, err = scanShard(sub); err != nil {
				return nil, err
			}
		}
		sh := newShard(sub, i, capBytes, s.pins)
		victims = append(victims, sh.load(files)...)
		s.shards = append(s.shards, sh)
	}
	s.noteDisk(victims)
	return s, nil
}

// shardOf returns the disk shard that holds key, or nil when key has no
// disk home (a memory-only store, or a key too short to fan out).
func (s *Store) shardOf(key string) *shard {
	if s.shards == nil || len(key) <= 2 {
		return nil
	}
	b, err := strconv.ParseUint(key[:2], 16, 8)
	if err != nil {
		return s.shards[0]
	}
	return s.shards[uint8(b)&s.mask]
}

// Get returns the stored canonical result bytes for key, if present.
func (s *Store) Get(key string) ([]byte, bool) {
	start := time.Now()
	defer func() { hStoreGet.Observe(time.Since(start).Seconds()) }()
	sh := s.shardOf(key)
	data, ok := s.hot.get(key)
	if ok {
		if sh != nil {
			sh.touch(key)
		}
	} else if sh != nil {
		if data, ok = sh.read(key); ok {
			s.hot.put(key, data)
		}
	}
	if !ok {
		s.misses.Add(1)
		cStoreMisses.Inc()
		return nil, false
	}
	s.hits.Add(1)
	cStoreHits.Inc()
	return data, true
}

// Put stores canonical result bytes under key in memory and, when
// configured, on disk. The disk write (writeFileAtomic) is crash-safe: the
// bytes are written to a temporary file which is fsynced *before* the
// atomic rename, and the containing directory is fsynced after, so a
// killed or power-cut run can never leave a visible-but-truncated entry.
// (Rename-without-fsync can be reordered by the filesystem so the name
// appears before the data blocks; a truncated-but-parseable JSON prefix
// would then poison warm-cache determinism, which trusts stored bytes as
// canonical.)
//
// A Put of a key already on disk is a no-op on the disk tier: the store
// is content-addressed, so same key ⇒ same bytes, and rewriting them
// would only churn a temp file, an fsync and a rename for nothing. One
// unique key costs exactly one disk write (TestStorePutSingleDiskWrite),
// and the skip counts into astro_store_put_noops_total.
func (s *Store) Put(key string, data []byte) error {
	start := time.Now()
	defer func() { hStorePut.Observe(time.Since(start).Seconds()) }()
	cStorePuts.Inc()
	s.hot.put(key, data)
	s.puts.Add(1)
	sh := s.shardOf(key)
	if sh == nil {
		return nil
	}
	victims, wrote, err := sh.put(key, data)
	if wrote {
		s.noteDisk(victims)
	}
	return err
}

// noteDisk runs after the disk tier changed: the hot cache drops every
// evicted key (evicted ⇒ the next Get recomputes, crisply, across both
// tiers) and the occupancy gauges are refreshed.
func (s *Store) noteDisk(victims []string) {
	for _, key := range victims {
		s.hot.drop(key)
	}
	s.gaugeMu.Lock()
	defer s.gaugeMu.Unlock()
	var bytes int64
	var keys int
	for _, sh := range s.shards {
		b, k := sh.usage()
		sh.occupancy.Set(float64(k))
		bytes += b
		keys += k
	}
	gStoreDiskBytes.Set(float64(bytes))
	gStoreDiskKeys.Set(float64(keys))
}

// Occupancy snapshots the disk-tier accounting (Occupant interface),
// summed over shards.
func (s *Store) Occupancy() Occupancy {
	var occ Occupancy
	for _, sh := range s.shards {
		sh.mu.RLock()
		occ.DiskBytes += sh.diskBytes
		occ.CapBytes += sh.maxBytes
		occ.DiskKeys += len(sh.disk)
		occ.DiskWrites += sh.diskWrites
		occ.PutNoops += sh.putNoops
		occ.Evictions += sh.evictions
		sh.mu.RUnlock()
	}
	for _, key := range s.pins.PinnedKeys() {
		if sh := s.shardOf(key); sh != nil {
			sh.mu.RLock()
			if e, ok := sh.disk[key]; ok {
				occ.PinnedBytes += e.Value.(*diskEnt).size
				occ.PinnedKeys++
			}
			sh.mu.RUnlock()
		}
	}
	occ.HotBytes = s.hot.size()
	occ.HotCapBytes = s.hot.max
	return occ
}

// Pin and Unpin implement PinStore on the ledger every shard consults
// during eviction: a pinned key is never evicted, whichever shard holds it.
func (s *Store) Pin(key string)   { s.pins.Pin(key) }
func (s *Store) Unpin(key string) { s.pins.Unpin(key) }

// Len returns the number of results the store holds: the keys on disk for
// a disk-backed store (seeded by the open-time scan, so the count survives
// a restart), the resident entries for a memory-only one.
func (s *Store) Len() int {
	if s.shards == nil {
		return s.hot.lenKeys()
	}
	n := 0
	for _, sh := range s.shards {
		_, k := sh.usage()
		n += k
	}
	return n
}

// Stats returns cumulative hit/miss/put counters.
func (s *Store) Stats() (hits, misses, puts uint64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}

// writeFileAtomic writes data via temp-file + fsync + rename + directory
// sync — the one crash-safety discipline shared by result values and the
// sharded layout's manifest.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	syncDir(dir)
	return nil
}

// syncDir persists a directory entry (the rename) to stable storage. Best
// effort: a failure only weakens crash durability, never correctness — the
// entry is either fully present or absent after recovery either way.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
