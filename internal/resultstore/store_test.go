package resultstore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const keyA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
const keyB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"

type payload struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// onDisk is the size of the artifact file under (kind, key).
func onDisk(t *testing.T, dir string, kind Kind, key string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, string(kind), key+Ext))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "mult3", Count: 42}
	size, err := s.Put(KindReport, keyA, want)
	if err != nil {
		t.Fatal(err)
	}
	if disk := onDisk(t, dir, KindReport, keyA); size != disk {
		t.Fatalf("Put returned size %d, the file holds %d bytes", size, disk)
	}
	var got payload
	if err := s.Get(KindReport, keyA, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestMissingArtifactIsNotExist(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(KindShard, keyA, &got); !os.IsNotExist(err) {
		t.Fatalf("Get(missing) = %v, want not-exist", err)
	}
	if s.Has(KindShard, keyA) {
		t.Fatal("Has(missing) = true")
	}
}

func TestKindsAreIsolated(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindReport, keyA, payload{Name: "r"}); err != nil {
		t.Fatal(err)
	}
	if s.Has(KindShard, keyA) || s.Has(KindPending, keyA) {
		t.Fatal("artifact leaked across kinds")
	}
	keys, err := s.Keys(KindReport)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != keyA {
		t.Fatalf("Keys(reports) = %v", keys)
	}
}

func TestDeleteIsIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindPending, keyB, payload{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(KindPending, keyB); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(KindPending, keyB); err != nil {
		t.Fatal(err)
	}
	if s.Has(KindPending, keyB) {
		t.Fatal("artifact survived delete")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", 64), "../../../../etc/passwd", strings.Repeat("A", 64)} {
		if _, err := s.Put(KindReport, bad, payload{}); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
		if err := s.Get(KindReport, bad, &payload{}); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", bad)
		}
		if s.Has(KindReport, bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}
}

func TestCorruptArtifactSurfacesError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "reports", keyA+Ext), []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(KindReport, keyA, &got); err == nil || os.IsNotExist(err) {
		t.Fatalf("Get(corrupt) = %v, want decode error", err)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindReport, keyA, payload{Name: "persisted", Count: 7}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s2.Get(KindReport, keyA, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "persisted" || got.Count != 7 {
		t.Fatalf("got %+v after reopen", got)
	}
}

func TestKeysSkipsStrayFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(KindShard, keyB, payload{}); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "shards", "stray.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "shards", "put-123.tmp"), []byte("x"), 0o644)
	keys, err := s.Keys(KindShard)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != keyB {
		t.Fatalf("Keys = %v, want [%s]", keys, keyB)
	}
}

// TestWriteReadRoundTrip: Write persists an encoded body as Put
// persists the value it encodes, and Read returns the body Write was
// given.
func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "c499", Count: 5184}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	size, err := s.Write(KindFaultNames, keyA, body)
	if err != nil {
		t.Fatal(err)
	}
	if disk := onDisk(t, dir, KindFaultNames, keyA); size != disk {
		t.Fatalf("Write returned size %d, the file holds %d bytes", size, disk)
	}
	got, err := s.Read(KindFaultNames, keyA)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Read = %q, %v; want %q", got, err, body)
	}
	var decoded payload
	if err := s.Get(KindFaultNames, keyA, &decoded); err != nil || decoded != want {
		t.Fatalf("Get = %+v, %v; want %+v", decoded, err, want)
	}
	if _, err := s.Put(KindReport, keyA, want); err != nil {
		t.Fatal(err)
	}
	written, _ := os.ReadFile(filepath.Join(dir, string(KindFaultNames), keyA+Ext))
	put, _ := os.ReadFile(filepath.Join(dir, string(KindReport), keyA+Ext))
	if !bytes.Equal(written, put) {
		t.Error("Write and Put of one value left different artifacts")
	}
}

// TestWriteAtomicFailedFill: a fill that fails, after writing part of
// its bytes, leaves neither the file nor its temporary behind, and an
// earlier file under the path survives unchanged.
func TestWriteAtomicFailedFill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	boom := errors.New("fill failed")
	fail := func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	}
	if n, err := WriteAtomic(path, fail); !errors.Is(err, boom) || n != 0 {
		t.Fatalf("WriteAtomic = %d, %v; want 0, %v", n, err, boom)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("failed write left %s behind", ents[0].Name())
	}

	n, err := WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("whole"))
		return err
	})
	if err != nil || n != int64(len("whole")) {
		t.Fatalf("WriteAtomic = %d, %v; want %d, nil", n, err, len("whole"))
	}
	if _, err := WriteAtomic(path, fail); !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic = %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "whole" {
		t.Fatalf("after a failed rewrite the file reads %q, %v; want \"whole\"", got, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed rewrite left %d files, want only the artifact", len(ents))
	}
}

// freshGzip is what a fresh gzip.Writer at the default level makes of
// b.
func freshGzip(t *testing.T, b []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPooledWriterMatchesFresh: every write compresses through a pooled
// writer reset onto its file, and the artifact's bytes are what a fresh
// writer makes, whatever the writer compressed before.
func TestPooledWriterMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(`["` + strings.Repeat("g10.t1/channel-break\",\"", 4000) + `"]`)
	for i, body := range [][]byte{big, []byte(`{"a":1}`), big[:len(big)/3], []byte(`[]`), big} {
		if _, err := s.Write(KindReport, keyA, body); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, string(KindReport), keyA+Ext))
		if err != nil {
			t.Fatal(err)
		}
		if want := freshGzip(t, append(append([]byte{}, body...), '\n')); !bytes.Equal(got, want) {
			t.Fatalf("write %d: pooled writer made %d bytes, a fresh one %d", i, len(got), len(want))
		}
	}
}

// TestConcurrentWrites: writers on many goroutines share one pool of
// gzip writers. Each artifact reads back whole as one writer's body,
// never a mix; run under -race, it fails if two writes share a writer.
func TestConcurrentWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{keyA, keyB}
	bodies := map[string]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		body := []byte(fmt.Sprintf(`{"writer":%d,"names":%q}`, g, strings.Repeat(fmt.Sprintf("w%d/f,", g), 500+g*100)))
		bodies[string(body)] = true
		wg.Add(1)
		go func(g int, body []byte) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := keys[(g+i)%len(keys)]
				if i%2 == 0 {
					if _, err := s.Write(KindShard, key, body); err != nil {
						t.Error(err)
					}
				} else if _, err := s.Put(KindShard, key, json.RawMessage(body)); err != nil {
					t.Error(err)
				}
			}
		}(g, body)
	}
	wg.Wait()
	for _, key := range keys {
		got, err := s.Read(KindShard, key)
		if err != nil || !bodies[string(got)] {
			t.Errorf("%s reads back %d bytes (%v), not one writer's body", key[:8], len(got), err)
		}
	}
}
