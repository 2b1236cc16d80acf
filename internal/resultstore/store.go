// Package resultstore is the campaign service's durable,
// content-addressed result store: finished campaign reports with their
// undetected faults, the fault names those refer to, per-shard sub-job
// results and pending-campaign markers persist as compressed JSON
// artifacts under their content address, so a restarted service
// answers repeat campaigns without re-simulation and resumes
// interrupted ones from the shards that already completed.
//
// Layout (one directory per artifact kind under the store root):
//
//	<dir>/reports/<key>.json.gz           merged campaign reports (report v2,
//	                                      without the undetected lists), keyed
//	                                      by the campaign's canonical content
//	                                      address
//	<dir>/undetected-index/<key>.json.gz  the same campaign's undetected
//	                                      faults: one bitset per class over
//	                                      the class's slice of the fault
//	                                      universe, and the key of the
//	                                      universe's names
//	<dir>/fault-names/<key>.json.gz       a fault universe's names in
//	                                      universe order, keyed by the
//	                                      circuit's canonical text and the
//	                                      fault configuration, so every
//	                                      campaign on one circuit and fault
//	                                      configuration shares one
//	<dir>/shards/<key>.json.gz            sub-job results, keyed by the shard's
//	                                      derived content address (see internal/shard)
//	<dir>/pending/<key>.json.gz           normalized requests of accepted-but-
//	                                      unfinished campaigns (resumable state)
//
// The service writes a campaign's names (only when absent), then its
// index, then its report, and serves a stored report only when it reads
// version 2 and its index exists; it names the faults when
// /v1/campaigns/{id}/undetected asks, from the index and the names.
// A store an older build wrote holds v1 reports, which carried the
// lists inline, or v2 reports beside an undetected/ tree of name lists,
// and no index: the service serves none of them, never reads
// undetected/, and re-simulates each such key once, writing the new
// artifacts.
//
// Writes are atomic (tmp + rename) so a crashed writer never leaves a
// half-written artifact, and gzip's CRC catches torn or corrupted files
// at read time. Every write compresses through one pool of gzip writers
// at the default level. Keys are exactly 64 lowercase hex digits (a
// SHA-256), which also guards the store against path traversal.
package resultstore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Kind names an artifact namespace inside the store.
type Kind string

const (
	// KindReport holds merged campaign reports keyed by campaign key.
	KindReport Kind = "reports"
	// KindShard holds sub-job results keyed by shard sub-key.
	KindShard Kind = "shards"
	// KindPending holds normalized requests of campaigns that were
	// accepted but have not completed (the resumable state).
	KindPending Kind = "pending"
	// KindUndetectedIndex holds each merged report's undetected faults
	// as universe indices, keyed by campaign key.
	KindUndetectedIndex Kind = "undetected-index"
	// KindFaultNames holds fault universes' names, keyed by the
	// circuit's canonical text and the fault configuration.
	KindFaultNames Kind = "fault-names"
)

// kinds is every valid namespace, for Open to pre-create.
var kinds = []Kind{KindReport, KindShard, KindPending, KindUndetectedIndex, KindFaultNames}

// Ext is the artifact file suffix.
const Ext = ".json.gz"

// Store is a content-addressed artifact directory tree. All methods are
// safe for concurrent use; concurrency control is the filesystem's
// (atomic rename), so multiple processes may share one store.
type Store struct {
	dir string
}

// Open creates the store layout if needed and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty store directory")
	}
	for _, k := range kinds {
		if err := os.MkdirAll(filepath.Join(dir, string(k)), 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store root.
func (s *Store) Dir() string { return s.dir }

// ValidKey reports whether key is a well-formed artifact key: exactly
// the 64 lowercase hex digits of a SHA-256.
func ValidKey(key string) bool {
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

func (s *Store) path(kind Kind, key string) string {
	return filepath.Join(s.dir, string(kind), key+Ext)
}

// gzipWriters pools the writers every store write compresses through:
// a fresh gzip.Writer allocates its whole compressor (about 800 KB),
// and Reset keeps it and its level, so a pooled writer writes the bytes
// a fresh one would.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// Put persists v as compressed JSON under (kind, key), atomically, and
// returns the artifact's on-disk size. The artifact holds v's JSON and
// a newline.
func (s *Store) Put(kind Kind, key string, v interface{}) (int64, error) {
	return s.write(kind, key, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

// Write is Read's mirror: it persists body, JSON already encoded, under
// (kind, key) as Put would persist the value it encodes, without
// scanning or copying it again, and returns the artifact's on-disk
// size.
func (s *Store) Write(kind Kind, key string, body []byte) (int64, error) {
	return s.write(kind, key, func(w io.Writer) error {
		if _, err := w.Write(body); err != nil {
			return err
		}
		_, err := w.Write([]byte{'\n'})
		return err
	})
}

// write compresses what fill writes into a temporary file beside the
// artifact and renames it into place.
func (s *Store) write(kind Kind, key string, fill func(io.Writer) error) (int64, error) {
	if !ValidKey(key) {
		return 0, fmt.Errorf("resultstore: invalid artifact key %q", key)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, string(kind)), "put-*.tmp")
	if err != nil {
		return 0, err
	}
	discard := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(tmp)
	err = fill(zw)
	if err == nil {
		err = zw.Close()
	}
	gzipWriters.Put(zw)
	if err != nil {
		return discard(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	fi, err := os.Stat(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), s.path(kind, key)); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return fi.Size(), nil
}

// Get loads the artifact under (kind, key) into out. A missing artifact
// surfaces as a wrapped os.ErrNotExist; a torn or corrupted artifact as
// a read or decode error.
func (s *Store) Get(kind Kind, key string, out interface{}) error {
	b, err := s.Read(kind, key)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("resultstore: artifact %s/%s: %w", kind, key, err)
	}
	return nil
}

// Read returns the JSON stored under (kind, key), decompressed and not
// decoded, without the newline Put and Write end it with: what Write
// was given. It reads the artifact to its end, so gzip's length and CRC
// checks always run: a torn or corrupted artifact surfaces as an error,
// a missing one as a wrapped os.ErrNotExist.
func (s *Store) Read(kind Kind, key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("resultstore: invalid artifact key %q", key)
	}
	f, err := os.Open(s.path(kind, key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("resultstore: artifact %s/%s: %w", kind, key, err)
	}
	defer zr.Close()
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("resultstore: artifact %s/%s: %w", kind, key, err)
	}
	return bytes.TrimSuffix(b, []byte{'\n'}), nil
}

// Has reports whether an artifact exists under (kind, key), without
// reading it.
func (s *Store) Has(kind Kind, key string) bool {
	if !ValidKey(key) {
		return false
	}
	_, err := os.Stat(s.path(kind, key))
	return err == nil
}

// Delete removes the artifact under (kind, key); deleting a missing
// artifact is not an error.
func (s *Store) Delete(kind Kind, key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("resultstore: invalid artifact key %q", key)
	}
	err := os.Remove(s.path(kind, key))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Keys lists the artifact keys present under kind, sorted.
func (s *Store) Keys(kind Kind) ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, string(kind)))
	if err != nil {
		return nil, err
	}
	keys := []string{}
	for _, e := range ents {
		name := e.Name()
		if len(name) == 64+len(Ext) && name[64:] == Ext && ValidKey(name[:64]) {
			keys = append(keys, name[:64])
		}
	}
	sort.Strings(keys)
	return keys, nil
}
