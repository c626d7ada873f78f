package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestShardedStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWith(dir, StoreConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		data, ok := s.Get(testKey(i))
		if !ok || string(data) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d: got %q ok=%v", i, data, ok)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}

	// A fresh process over the same directory sees everything: the layout
	// from INDEX.json, the keys from the open-time scan, values from disk.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d (open-time scan missed shards?)", got, n)
	}
	for i := 0; i < n; i++ {
		if data, ok := s2.Get(testKey(i)); !ok || string(data) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("reopened key %d: got %q ok=%v", i, data, ok)
		}
	}
}

func TestShardedStoreRejectsShardCountChange(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewStoreWith(dir, StoreConfig{Shards: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStoreWith(dir, StoreConfig{Shards: 32}); err == nil {
		t.Fatal("reopening with a different shard count succeeded")
	}
	// The same count, and 0 ("whatever the directory holds"), still work.
	for _, shards := range []int{8, 0} {
		if _, err := NewStoreWith(dir, StoreConfig{Shards: shards}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewStoreWith(t.TempDir(), StoreConfig{Shards: 512}); err == nil {
		t.Fatal("a 512-shard store opened past the one-key-byte limit")
	}
}

func TestShardedStoreConcurrentWriters(t *testing.T) {
	s, err := NewStoreWith(t.TempDir(), StoreConfig{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := testKey(w*each + i)
				if err := s.Put(k, []byte(k)); err != nil {
					t.Errorf("put: %v", err)
				}
				if data, ok := s.Get(k); !ok || string(data) != k {
					t.Errorf("get-after-put %s failed", k[:8])
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*each {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*each)
	}
	if _, _, puts := s.Stats(); puts != writers*each {
		t.Fatalf("puts = %d, want %d", puts, writers*each)
	}
}

// TestShardedStoreMemoryOnly: a shard count without a directory is a
// plain memory-only store.
func TestShardedStoreMemoryOnly(t *testing.T) {
	s, err := NewStoreWith("", StoreConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(testKey(1)); !ok || string(data) != "v" {
		t.Fatal("memory-only sharded store round trip failed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// fixtureValue is the value the committed legacy fixtures hold under
// testKey(i).
func fixtureValue(i int) []byte {
	return []byte(fmt.Sprintf("{\"fixture\":%d,\"pad\":\"%0*d\"}", i, 8+i*3, i))
}

// TestStoreOpensLegacyLayouts pins the on-disk layouts earlier versions
// wrote, from committed fixtures under testdata/: a plain store (6 keys),
// and a 4-shard store (10 keys) from the era of the per-shard keys.idx
// index, one of them with a torn tail from a crash mid-append. Each opens
// with plain NewStore, serves every value byte-exact, counts its keys from
// the open-time scan, and refuses a contradicting shard count.
func TestStoreOpensLegacyLayouts(t *testing.T) {
	for _, fx := range []struct {
		name         string
		keys         int
		agree, clash int // Shards values the layout accepts / refuses
	}{
		{"store-plain", 6, 1, 8},
		{"store-sharded4", 10, 4, 8},
	} {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", fx.name))); err != nil {
				t.Fatal(err)
			}
			s, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Len(); got != fx.keys {
				t.Fatalf("Len = %d, want %d", got, fx.keys)
			}
			for i := 0; i < fx.keys; i++ {
				if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, fixtureValue(i)) {
					t.Fatalf("key %d: got %q ok=%v", i, got, ok)
				}
			}
			if _, err := NewStoreWith(dir, StoreConfig{Shards: fx.agree}); err != nil {
				t.Fatalf("Shards=%d refused: %v", fx.agree, err)
			}
			if _, err := NewStoreWith(dir, StoreConfig{Shards: fx.clash}); err == nil {
				t.Fatalf("Shards=%d opened a store that contradicts it", fx.clash)
			}
		})
	}
}

// TestStoreOpenSweepsStaleTemps: a crash between writeFileAtomic's create
// and its rename leaves a .tmp file behind, at a shard's root (the
// manifest) or in a fan-out directory (a value). The open-time scan
// removes strays older than a minute at both levels, leaves younger ones
// (they may be live writes in another process) alone, and never counts a
// temp file as an entry.
func TestStoreOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreWith(dir, StoreConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Put(testKey(i), valFor(i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	k := testKey(0)
	fanout := filepath.Dir(s.path(k))
	shardRoot := filepath.Dir(fanout)
	old := time.Now().Add(-2 * time.Minute)
	var stale, fresh []string
	for _, d := range []string{shardRoot, fanout} {
		for _, name := range []string{".tmp-stale", ".tmp-fresh"} {
			p := filepath.Join(d, name)
			if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
			if name == ".tmp-stale" {
				os.Chtimes(p, old, old)
				stale = append(stale, p)
			} else {
				fresh = append(fresh, p)
			}
		}
	}

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 12 {
		t.Fatalf("reopened Len = %d, want 12", got)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("open left the stale temp file %s behind", p)
		}
	}
	for _, p := range fresh {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("open removed the young temp file %s: %v", p, err)
		}
	}
	for i := 0; i < 12; i++ {
		if got, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(got, valFor(i, 40)) {
			t.Fatalf("key %d unreadable after the sweep (ok=%v)", i, ok)
		}
	}
}
