package warmstate

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewFingerprint("result").Field("build", "abc").Field("params", "x=1").Key()
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	payload := []byte(`{"text":"report","results":{"v":1}}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = %q, %v, %v", got, ok, err)
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory sees the entry: persistence
	// across processes is the point.
	s2, err := OpenDiskStore(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.Get(key); err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}

	// Overwrite is last-writer-wins and stays committed.
	if err := s.Put(key, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get(key); string(got) != `{"v":2}` {
		t.Fatalf("overwritten entry = %q", got)
	}
}

// An entry whose stored key does not match the requested one (a filename
// collision, a hand-copied file) is a miss, never served as data.
func TestDiskStoreKeyMismatchIsMiss(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Forge a collision: move a's entry file to where key-b would live.
	if err := os.Rename(s.path("key-a"), s.path("key-b")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("key-b"); err != nil || ok {
		t.Fatalf("mismatched entry served: %v, %v", ok, err)
	}
	// Verify catches the mis-placed entry.
	if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("Verify missed the mis-placed entry: %v", err)
	}
}

// Verify flags truncated (non-envelope) entries and ignores in-flight
// temp files, which Get can never observe.
func TestDiskStoreVerifyPartialEntries(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	partial := EncodeEntry("x", []byte("payload"))[:20]
	if err := os.WriteFile(filepath.Join(s.dir, "put-123.tmp"), partial, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("temp file failed Verify: %v", err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("temp file counted as entry: Len = %d", n)
	}
	if err := os.WriteFile(filepath.Join(s.dir, "0000000000000000"+entrySuffix), partial, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err == nil {
		t.Fatal("Verify accepted a truncated entry")
	}
}

// A bit flip inside a stored value or inside the stored checksum keeps the
// envelope well formed; either is a counted miss that Verify reports.
func TestDiskStoreCorruptEntryIsMiss(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "warm/v1"
	for name, offset := range map[string]int{
		"flipped value bit":    len(entryMagic) + 8 + len(key) + 8 + 3,
		"flipped checksum bit": len(entryMagic) + 8 + len(key) + 8 + len("payload"),
	} {
		data := EncodeEntry(key, []byte("payload"))
		data[offset] ^= 1
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, before := s.Stats()
		if got, ok, err := s.Get(key); err != nil || ok {
			t.Fatalf("%s: corrupt entry served: %q, %v, %v", name, got, ok, err)
		}
		if _, misses := s.Stats(); misses != before+1 {
			t.Fatalf("%s: miss not counted", name)
		}
		if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s: Verify missed the corrupt entry: %v", name, err)
		}
	}
}

// An entry in the JSON envelope of earlier revisions is a foreign file: its
// key misses once and is rewritten as an entry, and Len and Verify see
// only the rewritten entry.
func TestDiskStoreJSONEntryIsForeign(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "warm/v1"
	legacy := strings.TrimSuffix(s.path(key), entrySuffix) + ".json"
	if err := os.WriteFile(legacy, []byte(`{"key":"warm/v1","value":"cGF5bG9hZA==","crc":1775129888}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("JSON entry served: %v, %v", ok, err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v with only a JSON entry", n, err)
	}
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(key); err != nil || !ok || string(got) != "payload" {
		t.Fatalf("rewritten entry Get = %q, %v, %v", got, ok, err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v after the rewrite", n, err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDiskStoreGet writes arbitrary bytes as the file at a key's entry path:
// Get must return a clean miss, or a hit whose stored key and checksum
// match the returned value, and never panic.
func FuzzDiskStoreGet(f *testing.F) {
	const key = "warm/v1"
	s, err := OpenDiskStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get = %v, want a clean miss", err)
		}
		if !ok {
			return
		}
		if !bytes.Equal(EncodeEntry(key, got), data) {
			t.Fatalf("served an entry that does not check out: %q", data)
		}
	})
}
