package dict

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func randomBitset(rng *rand.Rand, nbits int, density float64) Bitset {
	b := NewBitset(nbits)
	for i := 0; i < nbits; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestBitsetCodecRoundTrip pins the word-level encoder to the
// bit-by-bit reference (same codec, same bytes) and checks the decoder
// inverts it, at word-boundary widths and every density shape.
func TestBitsetCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		name string
		gen  func(int) Bitset
	}
	shapes := []shape{{"clustered", func(w int) Bitset { return clusteredBitset(rng, w) }}}
	for _, dn := range []float64{0, 0.01, 0.1, 0.5, 0.95, 1} {
		shapes = append(shapes, shape{fmt.Sprintf("density %.2f", dn), func(w int) Bitset { return randomBitset(rng, w, dn) }})
	}
	for _, w := range []int{0, 1, 5, 63, 64, 65, 127, 128, 129, 256, 1000, 4096} {
		for _, sh := range shapes {
			name := sh.name
			for trial := 0; trial < 10; trial++ {
				b := sh.gen(w)
				enc, want := appendBitset(nil, b), refAppendBitset(nil, b)
				if len(enc) > 0 && enc[0] != want[0] {
					t.Fatalf("width %d %s: codec %d, reference picks %d", w, name, enc[0], want[0])
				}
				if !bytes.Equal(enc, want) {
					t.Fatalf("width %d %s: encoding %x, reference %x", w, name, enc, want)
				}
				got, rest, err := decodeBitset(enc, w)
				if err != nil {
					t.Fatalf("width %d %s: %v", w, name, err)
				}
				if len(rest) != 0 {
					t.Fatalf("width %d %s: %d leftover bytes", w, name, len(rest))
				}
				if !got.Equal(b) {
					t.Fatalf("width %d %s: round trip lost bits", w, name)
				}
			}
		}
	}
}

func TestBitsetCodecPicksSmallest(t *testing.T) {
	// A one-hot 1000-bit set must not ship as 125 raw bytes.
	b := NewBitset(1000)
	b.Set(999)
	enc := appendBitset(nil, b)
	if len(enc) >= 125 {
		t.Fatalf("one-hot 1000-bit signature encoded to %d bytes", len(enc))
	}
	// A solid run should beat the sparse listing.
	r := NewBitset(1000)
	for i := 100; i < 900; i++ {
		r.Set(i)
	}
	enc = appendBitset(nil, r)
	if len(enc) > 10 {
		t.Fatalf("single-run signature encoded to %d bytes", len(enc))
	}
}

// TestBitsetBinaryRoundTrip: AppendBinary carries the width, and
// DecodeBitset gives back the set at that width only, refusing every
// damaged form: another width, a set bit past the width (raw and
// sparse codecs), a truncated payload and trailing bytes.
func TestBitsetBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{0, 1, 63, 64, 65, 570, 1428} {
		for _, dn := range []float64{0, 0.05, 0.5, 1} {
			b := randomBitset(rng, w, dn)
			enc := b.AppendBinary(nil)
			got, err := DecodeBitset(enc, w)
			if err != nil || !got.Equal(b) {
				t.Fatalf("width %d density %.2f: round trip %v", w, dn, err)
			}
			for _, other := range []int{w - 1, w + 1} {
				if _, err := DecodeBitset(enc, other); err == nil {
					t.Errorf("width %d decoded as %d bits", w, other)
				}
			}
			if _, err := DecodeBitset(append(enc, 0), w); err == nil {
				t.Errorf("width %d: trailing byte accepted", w)
			}
			if _, err := DecodeBitset(enc[:len(enc)-1], w); err == nil && w > 0 {
				t.Errorf("width %d density %.2f: truncated encoding accepted", w, dn)
			}
		}
	}
	// A raw image of a 60-bit set with bit 61 set, and a sparse list of
	// a 60-bit set naming bit 60.
	raw := binary.AppendUvarint(nil, 60)
	raw = append(raw, codecRaw, 8)
	raw = binary.LittleEndian.AppendUint64(raw, 1<<61)
	sparse := binary.AppendUvarint(nil, 60)
	sparse = append(sparse, codecSparse, 1, 61)
	for name, enc := range map[string][]byte{"raw": raw, "sparse": sparse} {
		if _, err := DecodeBitset(enc, 60); err == nil {
			t.Errorf("%s: a bit past the width decoded", name)
		}
	}
}

// refAppendBitset is the bit-by-bit reference encoder: it builds all
// three payloads through Test and keeps the smallest, earlier codec on
// a tie.
func refAppendBitset(dst []byte, b Bitset) []byte {
	payload := make([]byte, 0, 8*len(b.words))
	for _, w := range b.words {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	codec := byte(codecRaw)
	var sparse []byte
	prev := -1
	for i := 0; i < b.bits; i++ {
		if b.Test(i) {
			sparse = binary.AppendUvarint(sparse, uint64(i-prev))
			prev = i
		}
	}
	if len(sparse) < len(payload) {
		payload, codec = sparse, codecSparse
	}
	var runs []byte
	for pos, cur := 0, false; pos < b.bits; cur = !cur {
		run := 0
		for pos+run < b.bits && b.Test(pos+run) == cur {
			run++
		}
		runs = binary.AppendUvarint(runs, uint64(run))
		pos += run
	}
	if len(runs) < len(payload) {
		payload, codec = runs, codecRuns
	}
	dst = append(dst, codec)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// clusteredBitset alternates zero and one runs of random lengths, some
// long enough to need two-byte varints.
func clusteredBitset(rng *rand.Rand, nbits int) Bitset {
	b := NewBitset(nbits)
	for pos, cur := 0, rng.Intn(2) == 1; pos < nbits; cur = !cur {
		run := 1 + rng.Intn(40)
		if rng.Intn(4) == 0 {
			run += rng.Intn(400)
		}
		run = min(run, nbits-pos)
		if cur {
			b.setRange(pos, pos+run)
		}
		pos += run
	}
	return b
}

func TestClassLabel(t *testing.T) {
	for id := 0; id <= 12345; id++ {
		if got, want := classLabel(id), fmt.Sprintf("c%03d", id); got != want {
			t.Fatalf("classLabel(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestBitsetOps(t *testing.T) {
	a := NewBitset(130)
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		a.Set(i)
	}
	for _, i := range []int{0, 64, 128} {
		b.Set(i)
	}
	if got := AndCount(a, b); got != 2 {
		t.Fatalf("AndCount = %d, want 2", got)
	}
	if !AndAnyClear(a, b, 64) {
		t.Fatal("AndAnyClear should still see bit 0")
	}
	b.Clear(0)
	if AndAnyClear(a, b, 64) {
		t.Fatal("AndAnyClear should be empty after dropping 64")
	}
	if got := a.Members(); len(got) != 5 || got[0] != 0 || got[4] != 129 {
		t.Fatalf("Members = %v", got)
	}
	if a.Key() == b.Key() {
		t.Fatal("distinct bitsets share a key")
	}
	if !a.Clone().Equal(a) {
		t.Fatal("clone differs")
	}
}

func testDictionary(nPatterns int) *Dictionary {
	d := &Dictionary{Meta: Meta{
		Key:      strings.Repeat("ab", 32),
		Circuit:  "testckt",
		Patterns: nPatterns,
		IDDQ:     true,
	}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		e := Entry{
			Fault: fmt.Sprintf("G%02d/fault", i),
			Out:   randomBitset(rng, nPatterns, 0.08),
			Leak:  randomBitset(rng, nPatterns, 0.02),
		}
		d.Entries = append(d.Entries, e)
	}
	// Two deliberate equivalence pairs and one escape.
	d.Entries[5].Out = d.Entries[4].Out.Clone()
	d.Entries[5].Leak = d.Entries[4].Leak.Clone()
	d.Entries[39].Out = NewBitset(nPatterns)
	d.Entries[39].Leak = NewBitset(nPatterns)
	return d
}

func TestFileRoundTrip(t *testing.T) {
	d := testDictionary(150)
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Entries != len(d.Entries) || got.Meta.Patterns != 150 {
		t.Fatalf("meta mismatch: %+v", got.Meta)
	}
	if got.Meta.Resolution != d.Meta.Resolution {
		t.Fatalf("resolution %+v vs %+v", got.Meta.Resolution, d.Meta.Resolution)
	}
	for i := range d.Entries {
		if got.Entries[i].Fault != d.Entries[i].Fault ||
			!got.Entries[i].Out.Equal(d.Entries[i].Out) ||
			!got.Entries[i].Leak.Equal(d.Entries[i].Leak) ||
			got.Entries[i].Class != d.Entries[i].Class {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
	// Canonical: marshalling the decoded dictionary reproduces the bytes.
	raw2, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("re-marshal is not byte-identical")
	}
}

// seal assembles an artifact from a header and entry bytes, with a
// valid checksum.
func seal(header string, entries []byte) []byte {
	out := []byte(magic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(header)))
	out = append(out, header...)
	out = append(out, entries...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// oneEmptyEntry is the smallest entry record: an empty fault key and two
// empty sparse bitsets.
var oneEmptyEntry = []byte{0, codecSparse, 0, codecSparse, 0}

// forgedHeaders are checksum-valid artifacts whose headers claim
// dimensions the decoder must refuse before allocating them.
var forgedHeaders = map[string][]byte{
	"entries":  seal(`{"version":1,"patterns":8,"entries":1152921504606846976}`, oneEmptyEntry),
	"patterns": seal(`{"version":1,"patterns":4611686018427387904,"entries":1}`, oneEmptyEntry),
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	d := testDictionary(90)
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(seal(`{"version":1,"patterns":8,"entries":1}`, oneEmptyEntry)); err != nil {
		t.Fatalf("well-formed one-entry artifact refused: %v", err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"truncated":       raw[:len(raw)-5],
		"bitflip":         append(append([]byte{}, raw[:50]...), append([]byte{raw[50] ^ 1}, raw[51:]...)...),
		"badmagic":        append([]byte("NOTADICT"), raw[8:]...),
		"forged entries":  forgedHeaders["entries"],
		"forged patterns": forgedHeaders["patterns"],
	}
	for name, corrupt := range cases {
		if _, err := Unmarshal(corrupt); err == nil {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}
}

// FuzzDictUnmarshal feeds arbitrary artifact bodies, re-sealed with a
// valid checksum so the mutator gets past it, to the decoder. It must
// never panic, and whatever it accepts must re-encode to an artifact
// that decodes to the same entries.
func FuzzDictUnmarshal(f *testing.F) {
	c17, err := os.ReadFile(filepath.Join("testdata", "golden", "c17.cpd"))
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{c17, forgedHeaders["entries"], forgedHeaders["patterns"]} {
		f.Add(raw[:len(raw)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		d, err := Unmarshal(append(body, sum[:]...))
		if err != nil {
			return
		}
		again, err := d.Marshal()
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		back, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded artifact refused: %v", err)
		}
		if !reflect.DeepEqual(back.Entries, d.Entries) || back.Meta != d.Meta {
			t.Fatal("re-encoded artifact decodes differently")
		}
	})
}

func TestNormalizeResolution(t *testing.T) {
	d := testDictionary(100)
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := d.Meta.Resolution
	if res.Faults != 40 || res.Detected != 39 {
		t.Fatalf("faults/detected = %d/%d", res.Faults, res.Detected)
	}
	// 40 entries, one duplicated pair → at most 39 classes; the empty
	// signature is its own class.
	if res.Classes != 39 {
		t.Fatalf("classes = %d, want 39", res.Classes)
	}
	if res.UniquelyDiagnosable != 38 {
		t.Fatalf("uniquely diagnosable = %d, want 38", res.UniquelyDiagnosable)
	}
	// The equivalence pair must share a class label.
	a, _ := d.Lookup("G04/fault")
	b, _ := d.Lookup("G05/fault")
	if a.Class != b.Class {
		t.Fatalf("equivalent faults in classes %q and %q", a.Class, b.Class)
	}
	if got := d.Escapes(); len(got) != 1 || got[0] != "G39/fault" {
		t.Fatalf("escapes = %v", got)
	}
	if err := testDictionary(MaxPatterns + 1).Normalize(); err == nil {
		t.Fatalf("%d-pattern dictionary normalized past the ceiling", MaxPatterns+1)
	}
}

func TestDiagnoseDeterministicTieBreak(t *testing.T) {
	d := &Dictionary{Meta: Meta{Key: strings.Repeat("cd", 32), Patterns: 64}}
	sig := NewBitset(64)
	sig.Set(3)
	sig.Set(17)
	// Shuffled insert order; equivalent signatures must rank by fault key.
	for _, name := range []string{"zeta/f", "alpha/f", "mid/f"} {
		d.Entries = append(d.Entries, Entry{Fault: name, Out: sig.Clone(), Leak: NewBitset(64)})
	}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	obs := ObservationFrom(64, []int{3, 17}, nil)
	for trial := 0; trial < 5; trial++ {
		got := d.Diagnose(obs, 0)
		if len(got) != 3 {
			t.Fatalf("trial %d: %d candidates", trial, len(got))
		}
		if got[0].Fault != "alpha/f" || got[1].Fault != "mid/f" || got[2].Fault != "zeta/f" {
			t.Fatalf("trial %d: tie-break order %q %q %q", trial, got[0].Fault, got[1].Fault, got[2].Fault)
		}
		if !got[0].Exact || got[0].Score != 1 {
			t.Fatalf("trial %d: exact match scored %v", trial, got[0])
		}
	}
	// topK truncates after the deterministic sort.
	if got := d.Diagnose(obs, 2); len(got) != 2 || got[0].Fault != "alpha/f" {
		t.Fatalf("topK=2 gave %v", got)
	}
	// Disjoint observation: no candidates.
	if got := d.Diagnose(ObservationFrom(64, []int{40}, nil), 0); len(got) != 0 {
		t.Fatalf("disjoint observation matched %v", got)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := testDictionary(120)
	path, size, err := st.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("stat %s: %v (size %d, want %d)", path, err, fi.Size(), size)
	}
	if filepath.Base(path) != d.Meta.Key+ArtifactExt {
		t.Fatalf("artifact stored as %s", path)
	}

	// A fresh store over the same directory — the restart — must serve
	// the artifact from disk alone.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Get(d.Meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Resolution != d.Meta.Resolution || len(got.Entries) != len(d.Entries) {
		t.Fatalf("reloaded dictionary differs: %+v", got.Meta)
	}
	if sz, ok := st2.Stat(d.Meta.Key); !ok || sz != size {
		t.Fatalf("Stat = (%d, %v)", sz, ok)
	}
	keys, err := st2.Keys()
	if err != nil || len(keys) != 1 || keys[0] != d.Meta.Key {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), // uppercase hex is not canonical
	} {
		if _, err := st.Get(key); err == nil {
			t.Errorf("Get(%q) accepted", key)
		}
		d := testDictionary(10)
		d.Meta.Key = key
		if _, _, err := st.Put(d); err == nil {
			t.Errorf("Put with key %q accepted", key)
		}
	}
}

func TestStoreGetMissing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(strings.Repeat("00", 32)); !os.IsNotExist(err) {
		t.Fatalf("missing artifact: %v", err)
	}
}

// TestStoreConcurrentUse drives Get and Put from several goroutines
// over shared keys, for the race detector: every Get returns a whole
// artifact under its key while puts replace it.
func TestStoreConcurrentUse(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dicts := make([]*Dictionary, 72)
	for i := range dicts {
		dicts[i] = testDictionary(16)
		dicts[i].Meta.Key = fmt.Sprintf("%064x", i)
		if _, _, err := st.Put(dicts[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*len(dicts); i++ {
				want := dicts[(7*i+g)%len(dicts)]
				if g == 0 && i%5 == 0 {
					if _, _, err := st.Put(want); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if d, err := st.Get(want.Meta.Key); err != nil || d.Meta.Key != want.Meta.Key {
					t.Errorf("Get(%s) = %v, %v", want.Meta.Key, d, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
