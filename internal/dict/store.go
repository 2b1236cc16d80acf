package dict

import (
	"fmt"
	"os"
	"path/filepath"

	"cpsinw/internal/resultstore"
)

// Store is a content-addressed artifact directory: one <key>.cpd file
// per campaign, where the key is the campaign's canonical SHA-256 hex
// key, checked with resultstore.ValidKey. Puts write through
// resultstore.WriteAtomic, so a crashed writer never leaves a
// half-written artifact behind, and every Get reads and parses the
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

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+ArtifactExt)
}

// Put persists the dictionary under its Meta.Key and returns the file
// path and compressed size. The write is atomic within the store
// directory.
func (s *Store) Put(d *Dictionary) (string, int64, error) {
	if !resultstore.ValidKey(d.Meta.Key) {
		return "", 0, fmt.Errorf("dict: invalid artifact key %q", d.Meta.Key)
	}
	dst := s.path(d.Meta.Key)
	size, err := resultstore.WriteAtomic(dst, d.Write)
	if err != nil {
		return "", 0, err
	}
	return dst, size, nil
}

// Get loads the dictionary for key from disk. os.ErrNotExist surfaces
// (wrapped) when no artifact is stored under the key.
func (s *Store) Get(key string) (*Dictionary, error) {
	if !resultstore.ValidKey(key) {
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
