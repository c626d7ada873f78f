package campaign

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"astro/internal/telemetry"
)

// The disk tier's layout. A directory without a manifest is the plain
// layout, one shard rooted at the directory itself:
//
//	<key[:2]>/<key>.json   one file per entry
//
// A sharded directory pins its shard count in a manifest, and each shard
// is a plain layout of its own:
//
//	INDEX.json             {"version":1,"shards":N}
//	shard-00/<key[:2]>/<key>.json
//	shard-01/…
//
// A key lives in shard (first key byte & (N-1)). Keys are SHA-256 hex, so
// the prefix is uniformly distributed and the shards stay balanced without
// any placement logic. Every shard has its own lock and directory, so N
// concurrent writers contend only when their keys land in the same shard —
// never on one global mutex, and never on one directory's rename traffic.
//
// The shard count is part of the on-disk layout: reopening a directory
// with a contradicting count is an error rather than a silent cache miss
// on every key. Directories written with an older per-shard keys.idx key
// index open unchanged; the index file is simply ignored (the open-time
// scan is the ground truth it only approximated).

const shardManifestName = "INDEX.json"

type shardManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// staleTempAge is how old a temp file must be before the open-time scan
// removes it as a crashed write's leftover; live writes finish far sooner.
const staleTempAge = time.Minute

// shardDirs resolves dir's layout to its shard directories. An INDEX.json
// manifest fixes the shard count, and a nonzero want must agree with it.
// Without a manifest dir is the plain layout — unless want > 1 asks for a
// sharded one, which is created here when dir holds no plain entries.
func shardDirs(dir string, want int, plainEntries bool) ([]string, error) {
	mpath := filepath.Join(dir, shardManifestName)
	n := want
	if data, err := os.ReadFile(mpath); err == nil {
		var m shardManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("campaign: sharded store: corrupt %s: %w", shardManifestName, err)
		}
		if m.Shards < 1 || m.Shards > 256 || m.Shards&(m.Shards-1) != 0 {
			return nil, fmt.Errorf("campaign: sharded store: corrupt %s: %d shards is not a power of two in 1..256", shardManifestName, m.Shards)
		}
		if want > 0 && want != m.Shards {
			return nil, fmt.Errorf("campaign: sharded store %s was created with %d shards, reopened with %d — shard count is part of the layout", dir, m.Shards, want)
		}
		n = m.Shards
	} else if want <= 1 {
		return []string{dir}, nil
	} else if plainEntries {
		// Opening a populated plain store sharded would miss every stored
		// key, silently invalidating the cache.
		return nil, fmt.Errorf("campaign: %s holds a plain (unsharded) store; reopen it without -shards, or point the sharded store at a fresh directory", dir)
	} else {
		// Atomic like every other write in this subsystem: a crash
		// mid-creation must not leave a torn manifest that bricks the
		// directory on every later open.
		data, _ := json.Marshal(shardManifest{Version: 1, Shards: n})
		if err := writeFileAtomic(mpath, data); err != nil {
			return nil, fmt.Errorf("campaign: sharded store: %w", err)
		}
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%02x", i))
	}
	return dirs, nil
}

// diskFile is one value file found by the open-time scan.
type diskFile struct {
	key   string
	size  int64
	mtime time.Time
}

// scanShard lists the value files under one shard directory — every
// <2-hex>/<key>.json — oldest-modified first, and removes temp files older
// than staleTempAge at both levels (a crashed writeFileAtomic's leftovers).
// It is the store's one directory walk, run once per shard at open.
func scanShard(dir string) ([]diskFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: store scan: %w", err)
	}
	now := time.Now()
	var found []diskFile
	for _, e := range entries {
		name := e.Name()
		if sweepStaleTemp(dir, e, now) || !e.IsDir() || len(name) != 2 {
			continue
		}
		if _, err := strconv.ParseUint(name, 16, 8); err != nil {
			continue
		}
		sub := filepath.Join(dir, name)
		files, err := os.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, f := range files {
			key, ok := strings.CutSuffix(f.Name(), ".json")
			if sweepStaleTemp(sub, f, now) || f.IsDir() || !ok || len(key) <= 2 || key[:2] != name {
				continue
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, diskFile{key: key, size: fi.Size(), mtime: fi.ModTime()})
		}
	}
	slices.SortFunc(found, func(a, b diskFile) int {
		if c := a.mtime.Compare(b.mtime); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	return found, nil
}

// sweepStaleTemp reports whether e is a temp file, removing it when it is
// older than staleTempAge.
func sweepStaleTemp(dir string, e os.DirEntry, now time.Time) bool {
	if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp") {
		return false
	}
	if fi, err := e.Info(); err == nil && now.Sub(fi.ModTime()) > staleTempAge {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return true
}

// shard is one directory of the disk tier with its own lock and LRU
// accounting. disk maps every key on disk to its LRU element: seeded by
// the open-time scan, kept exact by Put and eviction after that.
type shard struct {
	dir       string
	pins      *PinLedger       // the store's ledger
	occupancy *telemetry.Gauge // astro_store_shard_keys for this shard

	mu        sync.RWMutex
	maxBytes  int64 // 0 = unbounded
	diskBytes int64
	disk      map[string]*list.Element
	lru       *list.List      // front = most recently used; values are *diskEnt
	writing   map[string]bool // keys with a value write in flight (dedup without holding mu across fsync)

	diskWrites, putNoops, evictions uint64
}

type diskEnt struct {
	key  string
	size int64
}

func newShard(dir string, i int, maxBytes int64, pins *PinLedger) *shard {
	return &shard{
		dir:       dir,
		pins:      pins,
		occupancy: shardGauge(i),
		maxBytes:  maxBytes,
		disk:      map[string]*list.Element{},
		lru:       list.New(),
		writing:   map[string]bool{},
	}
}

func (sh *shard) path(key string) string {
	return filepath.Join(sh.dir, key[:2], key+".json")
}

// load tracks the scanned files, oldest first so the newest land at the
// LRU's hot end, then evicts down to the cap if the directory arrives over
// it (a cap lowered between runs). It returns the evicted keys.
func (sh *shard) load(files []diskFile) []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, f := range files {
		sh.trackLocked(f.key, f.size)
	}
	return sh.evictLocked()
}

// read returns key's bytes from disk when the shard holds it.
func (sh *shard) read(key string) ([]byte, bool) {
	sh.mu.RLock()
	_, ok := sh.disk[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(sh.path(key))
	if err != nil {
		return nil, false
	}
	sh.touch(key)
	return data, true
}

// put banks data on disk unless the shard already holds key (or is
// writing it), and reports whether it wrote and which keys the write
// evicted. A value bigger than the shard's whole cap is refused up front:
// banking it would evict every peer and the value would still have to go —
// a whole shard of cache destroyed for nothing. It stays in the memory
// tier for this process and recomputes like any evicted key, and the
// refusal counts as an eviction. A *pinned* oversized value is banked
// regardless, holding the store over cap exactly as a pinned eviction
// survivor would (Occupancy/readyz report it).
func (sh *shard) put(key string, data []byte) (victims []string, wrote bool, err error) {
	sh.mu.Lock()
	if _, ok := sh.disk[key]; ok || sh.writing[key] {
		// Already durable (or another goroutine is making it so).
		if ok {
			sh.touchLocked(key)
		}
		sh.putNoops++
		sh.mu.Unlock()
		cStorePutNoops.Inc()
		return nil, false, nil
	}
	if sh.maxBytes > 0 && int64(len(data)) > sh.maxBytes && !sh.pins.Pinned(key) {
		sh.evictions++
		sh.mu.Unlock()
		cStoreEvictions.Add(1)
		return nil, false, nil
	}
	sh.writing[key] = true
	sh.mu.Unlock()

	p := sh.path(key)
	if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
		err = writeFileAtomic(p, data)
	}
	sh.mu.Lock()
	delete(sh.writing, key)
	if err == nil {
		sh.diskWrites++
		sh.trackLocked(key, int64(len(data)))
		victims = sh.evictLocked()
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, false, fmt.Errorf("campaign: store put: %w", err)
	}
	cStoreDiskWrites.Inc()
	return victims, true, nil
}

// trackLocked records key as on-disk with the given size (moving it to
// the hot end if already tracked).
func (sh *shard) trackLocked(key string, size int64) {
	if e, ok := sh.disk[key]; ok {
		sh.lru.MoveToFront(e)
		ent := e.Value.(*diskEnt)
		sh.diskBytes += size - ent.size
		ent.size = size
		return
	}
	sh.disk[key] = sh.lru.PushFront(&diskEnt{key: key, size: size})
	sh.diskBytes += size
}

// touch marks key most-recently-used.
func (sh *shard) touch(key string) {
	sh.mu.Lock()
	sh.touchLocked(key)
	sh.mu.Unlock()
}

func (sh *shard) touchLocked(key string) {
	if e, ok := sh.disk[key]; ok {
		sh.lru.MoveToFront(e)
	}
}

// usage reports the shard's current disk bytes and key count.
func (sh *shard) usage() (bytes int64, keys int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.diskBytes, len(sh.disk)
}

// evictLocked removes least-recently-used unpinned entries until the
// shard fits its cap, returning the evicted keys (the store drops them
// from the hot cache outside the lock). Pinned entries are skipped in
// place — a clock-style pass — so a shard whose pinned bytes exceed the
// cap simply stays over it (and reports so through Occupancy/readyz)
// rather than evicting a snapshot a live campaign depends on. File
// removal happens inside the lock-held walk but is a plain unlink (no
// fsync); a concurrent Get racing the unlink either reads the full old
// bytes or misses — both correct.
func (sh *shard) evictLocked() []string {
	if sh.maxBytes <= 0 || sh.diskBytes <= sh.maxBytes {
		return nil
	}
	var victims []string
	for e := sh.lru.Back(); e != nil && sh.diskBytes > sh.maxBytes; {
		ent := e.Value.(*diskEnt)
		prev := e.Prev()
		if !sh.pins.Pinned(ent.key) {
			os.Remove(sh.path(ent.key))
			sh.lru.Remove(e)
			delete(sh.disk, ent.key)
			sh.diskBytes -= ent.size
			sh.evictions++
			victims = append(victims, ent.key)
		}
		e = prev
	}
	cStoreEvictions.Add(uint64(len(victims)))
	return victims
}
