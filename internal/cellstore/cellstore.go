// Package cellstore keeps finished simulation cells. It is the one result
// store behind every reuse of a finished cell: the lbicd result cache in
// every cluster role, a coordinator's shared store, and a sweep's
// checkpoint (lbictables -store-dir).
//
// A Store has two tiers:
//
//   - a memory tier: a byte-budget LRU. A hit returns the stored slice
//     itself, with no copy and no filesystem call;
//   - an optional directory tier: one file per entry, content-addressed by
//     SHA-256 of (schema, model fingerprint, cell key). Writes are atomic
//     (temp file and rename), so a process killed mid-write never leaves a
//     readable but wrong entry. Every read re-checks the stored address
//     fields, so a torn, tampered or mis-filed entry reads as a miss.
//
// Entries are addressed by (schema, cell key, ModelFingerprint). The schema
// names what the value is: one cell key can hold an IPC float in a sweep and
// a run report in lbicd, and the two must never cross-serve. The
// fingerprint ties every entry to the exact model sources that computed
// it, so a store written by an older model reads as empty rather than
// stale. Any process pointed at the same directory, including one
// restarted after a crash, serves the cells already there.
//
// The store is a cache: write failures are swallowed, and a full disk
// degrades service to "slower", never to "failed".
package cellstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Store is a two-tier cell store. A nil *Store always misses and drops
// every Put. It is safe for concurrent use.
type Store struct {
	dir         string // directory tier root; empty = memory only
	fingerprint string // ModelFingerprint; a field so tests can age it

	mu      sync.Mutex
	mem     bool  // memory tier enabled
	budget  int64 // memory tier byte budget; 0 = unlimited
	live    int64
	lru     *list.List // front = most recent; values are *memEntry
	byKey   map[addr]*list.Element
	hits    uint64
	misses  uint64
	evicted uint64

	diskHits   atomic.Uint64
	diskMisses atomic.Uint64
	puts       atomic.Uint64
}

// addr is a memory-tier key: a struct, not a concatenated string, so a
// lookup allocates nothing.
type addr struct{ schema, key string }

type memEntry struct {
	at    addr
	value []byte
}

// New returns a store whose memory tier holds up to memBytes of values
// (0 = unlimited, < 0 = no memory tier) in front of the directory dir
// (empty = no directory tier). The directory is created on the first Put.
func New(memBytes int64, dir string) *Store {
	return &Store{
		dir:         dir,
		fingerprint: ModelFingerprint,
		mem:         memBytes >= 0,
		budget:      max(memBytes, 0),
		lru:         list.New(),
		byKey:       make(map[addr]*list.Element),
	}
}

// Get returns the value stored for key under schema: from the memory tier,
// else from the directory tier (promoting it into memory).
func (s *Store) Get(schema, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	at := addr{schema, key}
	if s.mem {
		s.mu.Lock()
		el, ok := s.byKey[at]
		if ok {
			s.hits++
			s.lru.MoveToFront(el)
			v := el.Value.(*memEntry).value
			s.mu.Unlock()
			return v, true
		}
		s.misses++
		s.mu.Unlock()
	}
	if s.dir == "" {
		return nil, false
	}
	v, ok := s.readDisk(at)
	if !ok {
		s.diskMisses.Add(1)
		return nil, false
	}
	s.diskHits.Add(1)
	s.putMem(at, v)
	return v, true
}

// Put stores value for key under schema in both tiers. Values larger than
// the whole memory budget skip the memory tier.
func (s *Store) Put(schema, key string, value []byte) {
	if s == nil || len(value) == 0 {
		return
	}
	at := addr{schema, key}
	s.putMem(at, value)
	if s.dir != "" && s.writeDisk(at, value) {
		s.puts.Add(1)
	}
}

func (s *Store) putMem(at addr, value []byte) {
	if !s.mem {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && int64(len(value)) > s.budget {
		return
	}
	if el, ok := s.byKey[at]; ok {
		e := el.Value.(*memEntry)
		s.live += int64(len(value)) - int64(len(e.value))
		e.value = value
		s.lru.MoveToFront(el)
	} else {
		s.byKey[at] = s.lru.PushFront(&memEntry{at: at, value: value})
		s.live += int64(len(value))
	}
	for s.budget > 0 && s.live > s.budget {
		back := s.lru.Back()
		e := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.byKey, e.at)
		s.live -= int64(len(e.value))
		s.evicted++
	}
}

// diskEntry is the on-disk document. The address fields ride alongside the
// value so a hash collision or a mis-filed entry is caught on read. The
// value is a JSON string, not an embedded object: string escaping
// round-trips the bytes exactly, where re-marshaling embedded JSON would
// compact it.
type diskEntry struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Key         string `json:"key"`
	Value       string `json:"value"`
}

// path maps an address to its file. Two hex digits of fan-out keep
// directories small at millions of cells.
func (s *Store) path(at addr) string {
	sum := sha256.Sum256([]byte(at.schema + "\x00" + s.fingerprint + "\x00" + at.key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name+".json")
}

func (s *Store) readDisk(at addr) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(at))
	if err != nil {
		return nil, false
	}
	var e diskEntry
	if json.Unmarshal(raw, &e) != nil || e.Schema != at.schema ||
		e.Fingerprint != s.fingerprint || e.Key != at.key || e.Value == "" {
		return nil, false
	}
	return []byte(e.Value), true
}

func (s *Store) writeDisk(at addr, value []byte) bool {
	doc, err := json.Marshal(diskEntry{at.schema, s.fingerprint, at.key, string(value)})
	if err != nil {
		return false
	}
	path := s.path(at)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return false
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(append(doc, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Memory tier.
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	BytesLive int64
	// Directory tier: reads that found a valid entry, reads that did not,
	// and entries written.
	DiskHits   uint64
	DiskMisses uint64
	Puts       uint64
}

// Stats snapshots the counters. Safe on a nil Store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evicted,
		Entries: len(s.byKey), BytesLive: s.live,
		DiskHits: s.diskHits.Load(), DiskMisses: s.diskMisses.Load(), Puts: s.puts.Load(),
	}
}
