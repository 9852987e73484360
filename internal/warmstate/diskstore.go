package warmstate

import (
	"bytes"
	"encoding/binary"
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

// An entry file holds one binary envelope (EncodeEntry): entryMagic, the
// key's length (uint64, little-endian) and bytes, the value's length and
// bytes, and the CRC-32 of both (checksum, uint32, little-endian). Entry
// files end in entrySuffix; a file in another format, such as the JSON
// envelope of earlier revisions, is foreign to the store: its key misses
// once and is rewritten as an entry.
const (
	entryMagic  = "widxent1"
	entrySuffix = ".entry"
)

// EncodeEntry renders the envelope of one entry.
func EncodeEntry(key string, value []byte) []byte {
	data := make([]byte, 0, len(entryMagic)+8+len(key)+8+len(value)+4)
	data = append(data, entryMagic...)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(key)))
	data = append(data, key...)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(value)))
	data = append(data, value...)
	return binary.LittleEndian.AppendUint32(data, checksum(key, value))
}

// DecodeEntry parses an envelope, returning the value as a slice of data.
// ok is false unless data is exactly one envelope whose checksum matches
// its key and value.
func DecodeEntry(data []byte) (key string, value []byte, ok bool) {
	key, value, crc, ok := parseEntry(data)
	return key, value, ok && crc == checksum(key, value)
}

// parseEntry splits an envelope into its key, its value and the checksum it
// carries, without checking the checksum.
func parseEntry(data []byte) (key string, value []byte, crc uint32, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(entryMagic))
	// field cuts one length-prefixed field off rest.
	field := func() []byte {
		if !ok || len(rest) < 8 {
			ok = false
			return nil
		}
		n := binary.LittleEndian.Uint64(rest)
		if rest = rest[8:]; n > uint64(len(rest)) {
			ok = false
			return nil
		}
		f := rest[:n]
		rest = rest[n:]
		return f
	}
	k := field()
	value = field()
	if !ok || len(rest) != 4 {
		return "", nil, 0, false
	}
	return string(k), value, binary.LittleEndian.Uint32(rest), true
}

// checksum is the CRC-32 (IEEE) of an entry's length-prefixed key and its
// value.
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
	return filepath.Join(s.dir, fmt.Sprintf("%016x%s", h.Sum(), entrySuffix))
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
	stored, value, ok := DecodeEntry(data)
	if !ok || stored != key {
		s.count(false)
		return nil, false, nil
	}
	s.count(true)
	return value, true, nil
}

// Put stores payload under key, atomically: the entry is written to a
// temporary file in the store directory and renamed into place, so
// concurrent readers and interrupted writers never observe a partial
// entry.
func (s *DiskStore) Put(key string, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("warmstate: writing disk store entry: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(EncodeEntry(key, payload)); err != nil {
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

// entryFiles lists the names of the committed entry files.
func (s *DiskStore) entryFiles() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("warmstate: listing disk store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entrySuffix) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Len counts the committed entries on disk.
func (s *DiskStore) Len() (int, error) {
	names, err := s.entryFiles()
	return len(names), err
}

// Verify walks every committed entry and checks its integrity: the file
// is one envelope, carries a non-empty key and a matching checksum, and
// sits at the path its key hashes to. Leftover temp files from in-flight
// writes and foreign files are ignored (they are invisible to Get);
// anything else malformed is an error. A cancelled or crashed run must
// leave the store Verify-clean — that is the "no partial entries" contract
// the sweep service's cancellation test asserts.
//
//widxlint:ignore deadcode used by the serve tests (TestCancellation)
func (s *DiskStore) Verify() error {
	names, err := s.entryFiles()
	if err != nil {
		return err
	}
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("warmstate: verify: %w", err)
		}
		key, value, crc, ok := parseEntry(data)
		if !ok {
			return fmt.Errorf("warmstate: verify: entry %s is not a committed envelope", name)
		}
		if key == "" {
			return fmt.Errorf("warmstate: verify: entry %s has an empty key", name)
		}
		if crc != checksum(key, value) {
			return fmt.Errorf("warmstate: verify: entry %s fails its checksum", name)
		}
		if want := s.path(key); want != path {
			return fmt.Errorf("warmstate: verify: entry %s stores key %q which hashes to %s", name, key, filepath.Base(want))
		}
	}
	return nil
}
