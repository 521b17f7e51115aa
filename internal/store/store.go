// Package store is a content-addressed result cache: opaque values keyed
// by the hex SHA-256 of their canonicalized configuration. The caller owns
// both sides of the contract — it derives keys (core.CellKey canonicalizes
// and hashes a run configuration, version-stamped so simulator changes
// invalidate cleanly) and encodes/decodes values (the campaign runner
// stores each Breakdown as a fixed 232-byte binary record, read back through
// Load) — so the store itself stays free of any simulation dependency.
//
// The store layers an in-memory LRU front over an optional on-disk object
// directory. Every entry written while a directory is configured persists
// across process restarts; the LRU only bounds resident memory, so an
// evicted entry is still a (disk) hit. A nil *Store is inert: Get always
// misses and Put is a no-op, which lets runners consult it
// unconditionally.
package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DefaultMaxEntries bounds the in-memory LRU when the caller passes 0.
const DefaultMaxEntries = 4096

// Store is a content-addressed byte store with an in-memory LRU front and
// an optional on-disk backing directory. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string // "" = memory-only
	max     int    // LRU capacity in entries
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64      // resident value bytes
	stats   Stats
}

type entry struct {
	key string
	val []byte
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// Hits = MemHits + DiskHits; a warm rerun of a fully cached sweep shows
// Misses and Puts unchanged while Hits grows by the cell count.
type Stats struct {
	Hits      int64 `json:"hits"`
	MemHits   int64 `json:"mem_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe the resident LRU front, not the disk
	// population (disk entries are unbounded and survive restarts).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// HitRate is the fraction of lookups served from cache (0 when idle).
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Open returns a store backed by dir (created if missing; "" keeps the
// store memory-only). maxEntries bounds the in-memory LRU front; 0 selects
// DefaultMaxEntries, negative is an error.
func Open(dir string, maxEntries int) (*Store, error) {
	if maxEntries < 0 {
		return nil, fmt.Errorf("store: negative LRU capacity %d", maxEntries)
	}
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{
		dir:     dir,
		max:     maxEntries,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}, nil
}

// NewMemory returns a memory-only store (no persistence).
func NewMemory(maxEntries int) *Store {
	s, err := Open("", maxEntries)
	if err != nil {
		panic(err) // only reachable with a negative capacity
	}
	return s
}

// Enabled reports whether a store is attached (s non-nil).
func (s *Store) Enabled() bool { return s != nil }

// Dir reports the backing directory ("" for a memory-only store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// validKey guards the disk path: keys are lowercase hex digests, so a
// malformed key can never escape the object directory.
func validKey(key string) error {
	if len(key) < 16 {
		return fmt.Errorf("store: key %q too short (want a hex digest)", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the value stored under key. A memory hit promotes the entry
// to most-recently-used; a disk hit additionally re-populates the LRU
// front. A nil store, an invalid key, and an absent entry all miss.
func (s *Store) Get(key string) (val []byte, ok bool) {
	ok = s.Load(key, func(b []byte) error {
		val = b
		return nil
	})
	return val, ok
}

// Load is Get for a caller that decodes what it finds: it hands the value
// stored under key to decode and hits only if decode accepts it. A value
// decode rejects (written by another format, say) counts as a miss and
// stays out of the memory front, so the caller's Put of a fresh value
// replaces it.
func (s *Store) Load(key string, decode func([]byte) error) bool {
	if s == nil || validKey(key) != nil {
		return false
	}
	var val []byte
	s.mu.Lock()
	el, mem := s.entries[key]
	if mem {
		s.lru.MoveToFront(el)
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	disk := false
	if !mem && s.dir != "" {
		var err error
		val, err = os.ReadFile(s.path(key))
		disk = err == nil
	}
	ok := (mem || disk) && decode(val) == nil
	s.mu.Lock()
	switch {
	case !ok:
		s.stats.Misses++
	case mem:
		s.stats.Hits++
		s.stats.MemHits++
	default:
		// Re-check under the lock: a concurrent Get may have re-populated it.
		if _, present := s.entries[key]; !present {
			s.insertLocked(key, val)
		}
		s.stats.Hits++
		s.stats.DiskHits++
	}
	s.mu.Unlock()
	return ok
}

// Put stores val under key, writing through to disk (atomic temp+rename)
// when a directory is configured. Storing under an existing key replaces
// the value. A nil store silently drops the write.
func (s *Store) Put(key string, val []byte) error {
	if s == nil {
		return nil
	}
	if err := validKey(key); err != nil {
		return err
	}
	if s.dir != "" {
		dir := filepath.Dir(s.path(key))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		tmp, err := os.CreateTemp(dir, key+".tmp*")
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := tmp.Write(val); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: %w", err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("store: %w", err)
		}
		if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("store: %w", err)
		}
	}
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		old := el.Value.(*entry)
		s.bytes += int64(len(val)) - int64(len(old.val))
		old.val = val
		s.lru.MoveToFront(el)
	} else {
		s.insertLocked(key, val)
	}
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

// insertLocked adds a fresh entry at the LRU front and evicts past the
// capacity. Callers hold s.mu.
func (s *Store) insertLocked(key string, val []byte) {
	s.entries[key] = s.lru.PushFront(&entry{key: key, val: val})
	s.bytes += int64(len(val))
	for s.lru.Len() > s.max {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.val))
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}
