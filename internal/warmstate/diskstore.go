package warmstate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DiskStore is the persistent sibling of Cache: a content-addressed
// blob store on disk, keyed by the same explicit Fingerprint strings, so
// artifacts survive the process — the sweep service keys finished
// experiment results by (build fingerprint, resolved config, resolved
// params) and serves a repeated sweep point from disk instead of
// re-simulating it.
//
// The same correctness discipline applies as for Cache: a key that omits
// a result-affecting input silently serves stale data. Keys are built
// through Fingerprint so every input is named at the call site, and each
// entry stores its full key alongside the payload — a filename-hash
// collision is detected on Get and treated as a miss, never served — and a
// CRC-32 of both, so a corrupted entry is a miss too.
//
// Writes are atomic (temp file + rename in the store directory), so a
// crashed or cancelled process can never leave a partial entry that a
// later Get would read: an entry is either absent or complete.
type DiskStore struct {
	dir string

	mu     sync.Mutex
	hits   uint64
	misses uint64
}

// diskEntry is the on-disk envelope of one entry.
type diskEntry struct {
	Key   string `json:"key"`
	Value []byte `json:"value"`
	CRC   uint32 `json:"crc"`
}

// checksum is the CRC-32 (IEEE) of an entry's length-prefixed key and its
// value. An entry written without one decodes with CRC 0, so it misses
// unless its content happens to checksum to 0.
func checksum(key string, value []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(key))))
	h.Write([]byte(key))
	h.Write(value)
	return h.Sum32()
}

// OpenDiskStore opens (creating if needed) a store rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("warmstate: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warmstate: opening disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// path maps a key to its entry file: an FNV-1a digest of the key. The key
// itself is stored in the entry, so a digest collision degrades to a miss
// (checked in Get), not to wrong data.
func (s *DiskStore) path(key string) string {
	h := NewHasher()
	h.String(key)
	return filepath.Join(s.dir, fmt.Sprintf("%016x.json", h.Sum()))
}

// Get returns the payload stored under key, if present. Unreadable,
// mismatched or corrupted entries (digest collisions, foreign files, bad
// checksums) are misses; the caller rebuilds and overwrites them.
func (s *DiskStore) Get(key string) ([]byte, bool, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			s.count(false)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("warmstate: reading disk store entry: %w", err)
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.CRC != checksum(key, e.Value) {
		s.count(false)
		return nil, false, nil
	}
	s.count(true)
	return e.Value, true, nil
}

// Put stores payload under key, atomically: the entry is written to a
// temporary file in the store directory and renamed into place, so
// concurrent readers and interrupted writers never observe a partial
// entry.
func (s *DiskStore) Put(key string, payload []byte) error {
	data, err := json.Marshal(diskEntry{Key: key, Value: payload, CRC: checksum(key, payload)})
	if err != nil {
		return fmt.Errorf("warmstate: encoding disk store entry: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("warmstate: writing disk store entry: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("warmstate: writing disk store entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("warmstate: writing disk store entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("warmstate: committing disk store entry: %w", err)
	}
	return nil
}

// Stats reports the Get hit/miss counters.
func (s *DiskStore) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

func (s *DiskStore) count(hit bool) {
	s.mu.Lock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
}

// Len counts the committed entries on disk.
func (s *DiskStore) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("warmstate: listing disk store: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}

// Verify walks every committed entry and checks its integrity: the file
// parses, carries a non-empty key and a matching checksum, and sits at
// the path its key hashes to. Leftover temp files from in-flight writes
// are ignored (they are invisible to Get); anything else malformed is an
// error. A cancelled or
// crashed run must leave the store Verify-clean — that is the "no partial
// entries" contract the sweep service's cancellation test asserts.
//
//widxlint:ignore deadcode used by the serve tests (TestCancellation)
func (s *DiskStore) Verify() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("warmstate: listing disk store: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		path := filepath.Join(s.dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("warmstate: verify: %w", err)
		}
		var e diskEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("warmstate: verify: entry %s is not a committed envelope: %w", ent.Name(), err)
		}
		if e.Key == "" {
			return fmt.Errorf("warmstate: verify: entry %s has an empty key", ent.Name())
		}
		if e.CRC != checksum(e.Key, e.Value) {
			return fmt.Errorf("warmstate: verify: entry %s fails its checksum", ent.Name())
		}
		if want := s.path(e.Key); want != path {
			return fmt.Errorf("warmstate: verify: entry %s stores key %q which hashes to %s", ent.Name(), e.Key, filepath.Base(want))
		}
	}
	return nil
}
