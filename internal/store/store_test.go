package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestMemoryRoundTrip(t *testing.T) {
	s := NewMemory(0)
	k := keyOf("a")
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store hit")
	}
	if err := s.Put(k, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get(k)
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.MemHits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("residency = %+v", st)
	}
}

// A value Load's decoder rejects is a miss, from memory or from disk, and a
// rejected disk value does not enter the memory front.
func TestLoadRejectedIsAMiss(t *testing.T) {
	k := keyOf("a")
	reject := func([]byte) error { return fmt.Errorf("stale") }
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Put(k, []byte("old format"))
		resident := 1
		if dir != "" {
			s, _ = Open(dir, 0) // the value is on disk only
			resident = 0
		}
		if s.Load(k, reject) {
			t.Fatalf("dir %q: rejected value hit", dir)
		}
		if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != resident {
			t.Fatalf("dir %q: stats after a rejected value = %+v, want %d resident", dir, st, resident)
		}
		if !s.Load(k, func([]byte) error { return nil }) {
			t.Fatalf("dir %q: accepted value missed", dir)
		}
	}
}

func TestPutReplaces(t *testing.T) {
	s := NewMemory(0)
	k := keyOf("a")
	s.Put(k, []byte("one"))
	s.Put(k, []byte("longer-two"))
	v, ok := s.Get(k)
	if !ok || string(v) != "longer-two" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != int64(len("longer-two")) {
		t.Fatalf("residency after replace = %+v", st)
	}
}

func TestInvalidKeys(t *testing.T) {
	s := NewMemory(0)
	for _, k := range []string{"", "short", "ZZZZZZZZZZZZZZZZZZZZ", "../../../../etc/passwd0"} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get(%q) hit", k)
		}
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("persist")
	if err := s1.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory serves the entry from disk.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s2.Get(k)
	if !ok || string(v) != "payload" {
		t.Fatalf("reopen Get = %q, %v", v, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("want a disk hit, got %+v", st)
	}
	// The disk hit re-populated the LRU front: the next Get is a mem hit.
	if _, ok := s2.Get(k); !ok {
		t.Fatal("second Get missed")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("want a mem hit after promotion, got %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewMemory(2)
	keys := []string{keyOf("1"), keyOf("2"), keyOf("3")}
	for i, k := range keys {
		s.Put(k, []byte(fmt.Sprintf("v%d", i)))
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after overflow = %+v", st)
	}
	// The oldest entry is gone (memory-only store: a real miss).
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("evicted entry still resident")
	}
	if _, ok := s.Get(keys[2]); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestEvictedEntryIsDiskHit(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{keyOf("1"), keyOf("2"), keyOf("3")}
	for i, k := range keys {
		s.Put(k, []byte(fmt.Sprintf("v%d", i)))
	}
	// Evicted from memory, but the write-through copy survives.
	v, ok := s.Get(keys[0])
	if !ok || string(v) != "v0" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if st := s.Stats(); st.DiskHits != 1 || st.Evictions < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetRecency(t *testing.T) {
	s := NewMemory(2)
	a, b, c := keyOf("a"), keyOf("b"), keyOf("c")
	s.Put(a, []byte("A"))
	s.Put(b, []byte("B"))
	s.Get(a) // promote a over b
	s.Put(c, []byte("C"))
	if _, ok := s.Get(b); ok {
		t.Fatal("b should have been evicted (a was touched more recently)")
	}
	if _, ok := s.Get(a); !ok {
		t.Fatal("a evicted despite recency")
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if s.Enabled() {
		t.Fatal("nil store enabled")
	}
	if err := s.Put(keyOf("x"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyOf("x")); ok {
		t.Fatal("nil store hit")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("idle hit rate = %g", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("hit rate = %g", r)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyOf(fmt.Sprintf("key-%d", i%16))
				want := []byte(fmt.Sprintf("val-%d", i%16))
				s.Put(k, want)
				if v, ok := s.Get(k); ok && !bytes.Equal(v, want) {
					t.Errorf("g%d: Get = %q, want %q", g, v, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Puts != 8*50 {
		t.Fatalf("puts = %+v", st)
	}
}

func TestDiskLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("layout")
	s.Put(k, []byte("x"))
	// Objects shard under the first two hex digits of the key.
	if _, err := os.Stat(filepath.Join(dir, k[:2], k)); err != nil {
		t.Fatal(err)
	}
	// No stray temp files survive a completed Put.
	m, _ := filepath.Glob(filepath.Join(dir, k[:2], "*.tmp*"))
	if len(m) != 0 {
		t.Fatalf("temp files left behind: %v", m)
	}
}
