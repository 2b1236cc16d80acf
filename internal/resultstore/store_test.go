package resultstore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
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

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "mult3", Count: 42}
	size, err := s.Put(KindReport, keyA, want)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("size = %d, want > 0", size)
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
	if _, err := s.Write(KindFaultNames, keyA, body); err != nil {
		t.Fatal(err)
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
