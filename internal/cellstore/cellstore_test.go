package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var updateFingerprint = flag.Bool("update", false, "rewrite ModelFingerprint in fingerprint.go")

// modelFingerprint recomputes ModelFingerprint from the module tree rooted
// at root. Directories the go tool ignores (testdata, dot- and
// underscore-prefixed) are skipped with the excluded top-level trees.
func modelFingerprint(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			switch {
			case rel == ".":
				return nil
			case rel == "cmd", rel == "examples", rel == "scripts", rel == "perfbench",
				name == "testdata", strings.HasPrefix(name, "."), strings.HasPrefix(name, "_"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") ||
			rel == "internal/cellstore/fingerprint.go" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestModelFingerprint fails when ModelFingerprint no longer matches the
// model sources; -update rewrites the constant.
func TestModelFingerprint(t *testing.T) {
	got, err := modelFingerprint(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if *updateFingerprint {
		src, err := os.ReadFile("fingerprint.go")
		if err != nil {
			t.Fatal(err)
		}
		re := regexp.MustCompile(`const ModelFingerprint = "[^"]*"`)
		out := re.ReplaceAll(src, []byte(fmt.Sprintf("const ModelFingerprint = %q", got)))
		if err := os.WriteFile("fingerprint.go", out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != ModelFingerprint {
		t.Fatalf("ModelFingerprint is stale: sources hash to %s, constant is %s\n"+
			"regenerate: go test ./internal/cellstore -run TestModelFingerprint -update", got, ModelFingerprint)
	}
}

const schema = "test-cell/v1"

func TestMemoryBudgetEvictsLRU(t *testing.T) {
	s := New(10, "")
	a, b, c := []byte("aaaa"), []byte("bbbb"), []byte("cccc")
	s.Put(schema, "a", a)
	s.Put(schema, "b", b)
	// Touch a so b is the least recently used.
	if got, ok := s.Get(schema, "a"); !ok || &got[0] != &a[0] {
		t.Fatal("memory hit must return the stored slice itself")
	}
	s.Put(schema, "c", c) // 12 bytes > 10: evicts b
	if _, ok := s.Get(schema, "b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Get(schema, k); !ok {
			t.Errorf("entry %s evicted, want b only", k)
		}
	}
	s.Put(schema, "big", bytes.Repeat([]byte("x"), 11)) // larger than the budget
	if _, ok := s.Get(schema, "big"); ok {
		t.Error("value larger than the whole budget was cached")
	}
	s.Put(schema, "a", []byte("A")) // replace in place
	st := s.Stats()
	if st.Entries != 2 || st.BytesLive != 5 || st.Evictions != 1 {
		t.Errorf("Stats = %+v, want 2 entries, 5 live bytes, 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("Stats = %+v, want 3 hits and 2 misses", st)
	}

	off := New(-1, "")
	off.Put(schema, "a", a)
	if _, ok := off.Get(schema, "a"); ok {
		t.Error("store without memory or directory tier hit")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := New(-1, t.TempDir())
	const key = "sim/compress/lbic-4x2/i1000000"
	report := []byte(`{"schema":"lbic-run-report/v1","cycles":42}`)
	if _, ok := s.Get(schema, key); ok {
		t.Fatal("Get on empty store hit")
	}
	s.Put(schema, key, report)
	got, ok := s.Get(schema, key)
	if !ok {
		t.Fatal("Get missed after Put")
	}
	if !bytes.Equal(got, report) {
		t.Errorf("Get = %s, want the exact stored bytes %s", got, report)
	}
	if st := s.Stats(); st.DiskHits != 1 || st.DiskMisses != 1 || st.Puts != 1 {
		t.Errorf("Stats = %+v, want 1 disk hit / 1 disk miss / 1 put", st)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	New(0, dir).Put(schema, "k", []byte(`{"x":1}`))
	s := New(0, dir)
	if got, ok := s.Get(schema, "k"); !ok || string(got) != `{"x":1}` {
		t.Fatalf("reopened store Get = %s, %v; want the stored value", got, ok)
	}
	// The directory hit is promoted: the repeat read is a memory hit.
	s.Get(schema, "k")
	if st := s.Stats(); st.DiskHits != 1 || st.Hits != 1 {
		t.Errorf("Stats = %+v, want 1 disk hit then 1 memory hit", st)
	}
}

// An entry written by another model, or under another schema, reads as a
// miss.
func TestStoreFingerprintIsolation(t *testing.T) {
	dir := t.TempDir()
	old := New(-1, dir)
	old.fingerprint = "an-older-model"
	old.Put(schema, "k", []byte(`{"x":1}`))
	s := New(-1, dir)
	if _, ok := s.Get(schema, "k"); ok {
		t.Error("a value computed by another model was served")
	}
	// The same file re-labelled with the current fingerprint but the wrong
	// schema is caught by the read-time address check.
	s.Put(schema, "k", []byte(`{"x":2}`))
	rewrite(t, s.path(addr{schema, "k"}), func(e *diskEntry) { e.Schema = "other/v1" })
	if _, ok := s.Get(schema, "k"); ok {
		t.Error("an entry filed under another schema was served")
	}
}

// One directory holds the same key string under two schemas without either
// serving the other's value.
func TestStoreSchemaIsolation(t *testing.T) {
	dir := t.TempDir()
	const key = "sim/compress/lbic-4x2/i20000"
	w := New(-1, dir)
	w.Put("lbic-sweep-cell/v1", key, []byte("1.234"))
	w.Put("lbic-sim-request/v1", key, []byte(`{"report":true}`))
	for _, s := range []*Store{w, New(0, dir)} {
		if got, _ := s.Get("lbic-sweep-cell/v1", key); string(got) != "1.234" {
			t.Errorf("sweep schema read %q", got)
		}
		if got, _ := s.Get("lbic-sim-request/v1", key); string(got) != `{"report":true}` {
			t.Errorf("request schema read %q", got)
		}
	}
}

// A torn write (an entry cut short by a killed process) reads as a miss
// after a reopen, and costs no other entry.
func TestStoreTornEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := New(-1, dir)
	s.Put(schema, "good", []byte(`{"x":1}`))
	s.Put(schema, "torn", []byte(`{"x":2}`))
	path := s.path(addr{schema, "torn"})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(-1, dir)
	if got, ok := s2.Get(schema, "good"); !ok || string(got) != `{"x":1}` {
		t.Errorf("intact entry: Get = %q, %v", got, ok)
	}
	if _, ok := s2.Get(schema, "torn"); ok {
		t.Error("torn entry served")
	}
}

// A mis-filed entry, valid JSON naming another key, reads as a miss.
func TestStoreRejectsTamperedEntry(t *testing.T) {
	s := New(-1, t.TempDir())
	s.Put(schema, "k", []byte(`{"x":1}`))
	path := s.path(addr{schema, "k"})
	rewrite(t, path, func(e *diskEntry) { e.Key = "OTHER" })
	if _, ok := s.Get(schema, "k"); ok {
		t.Error("tampered entry served")
	}
}

// A directory that cannot be written degrades to the memory tier: the
// value is still served, and nothing is counted as stored.
func TestStoreWriteFailureKeepsMemoryTier(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(0, notDir)
	s.Put(schema, "k", []byte("v"))
	if got, ok := s.Get(schema, "k"); !ok || string(got) != "v" {
		t.Errorf("Get = %q, %v; want the memory tier's value", got, ok)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Errorf("Puts = %d after a failed write, want 0", st.Puts)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var s *Store
	if _, ok := s.Get(schema, "k"); ok {
		t.Error("nil store hit")
	}
	s.Put(schema, "k", []byte("x")) // must not panic
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store Stats = %+v", st)
	}
}

// Concurrent writers and readers of overlapping keys, under both tiers and
// a budget small enough to evict; run under -race.
func TestStoreConcurrentPutGet(t *testing.T) {
	s := New(64, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%7)
				want := []byte("value-" + key)
				s.Put(schema, key, want)
				if got, ok := s.Get(schema, key); ok && !bytes.Equal(got, want) {
					t.Errorf("Get(%s) = %s, want %s", key, got, want)
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.BytesLive > 64 {
		t.Errorf("memory tier holds %d bytes, over its 64-byte budget", st.BytesLive)
	}
}

// rewrite edits the entry stored at path.
func rewrite(t *testing.T, path string, edit func(*diskEntry)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	edit(&e)
	if raw, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
