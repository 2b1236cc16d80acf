package dict

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store is a content-addressed artifact directory: one <key>.cpd file
// per campaign, where the key is the campaign's canonical SHA-256 hex
// key. Puts are atomic (tmp + rename) so a crashed writer never leaves
// a half-written artifact behind, and every Get reads and parses the
// artifact: the store holds nothing in memory. A key names its content,
// so a caller's cached copy stays valid across puts. All methods are
// safe for concurrent use; concurrency control is the filesystem's.
type Store struct {
	dir string
}

// ArtifactExt is the artifact file suffix.
const ArtifactExt = ".cpd"

// Open creates the directory if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("dict: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir reports the backing directory.
func (s *Store) Dir() string { return s.dir }

// ValidKey reports whether key is a well-formed artifact key, for
// callers that want to reject bad input before hitting the store.
func ValidKey(key string) bool { return validKey(key) }

// validKey guards against path traversal: artifact keys are exactly the
// 64 lowercase hex digits of a SHA-256.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+ArtifactExt)
}

// Put persists the dictionary under its Meta.Key and returns the file
// path and compressed size. The write is atomic within the store
// directory.
func (s *Store) Put(d *Dictionary) (string, int64, error) {
	if !validKey(d.Meta.Key) {
		return "", 0, fmt.Errorf("dict: invalid artifact key %q", d.Meta.Key)
	}
	raw, err := d.Marshal()
	if err != nil {
		return "", 0, err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return "", 0, err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	dst := s.path(d.Meta.Key)
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	return dst, int64(len(raw)), nil
}

// Get loads the dictionary for key from disk. os.ErrNotExist surfaces
// (wrapped) when no artifact is stored under the key.
func (s *Store) Get(key string) (*Dictionary, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("dict: invalid artifact key %q", key)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	d, err := Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("dict: artifact %s: %w", key, err)
	}
	if d.Meta.Key != key {
		return nil, fmt.Errorf("dict: artifact %s carries key %q", key, d.Meta.Key)
	}
	return d, nil
}

// Stat reports whether an artifact exists for key and its size on disk,
// without parsing it.
func (s *Store) Stat(key string) (int64, bool) {
	if !validKey(key) {
		return 0, false
	}
	fi, err := os.Stat(s.path(key))
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// Keys lists the artifact keys present on disk, sorted by filename.
func (s *Store) Keys() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	keys := []string{}
	for _, e := range ents {
		name := e.Name()
		if len(name) == 64+len(ArtifactExt) && filepath.Ext(name) == ArtifactExt && validKey(name[:64]) {
			keys = append(keys, name[:64])
		}
	}
	return keys, nil
}
