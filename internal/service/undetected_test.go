package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"cpsinw/internal/dict"
)

// storedArtifacts is a benchmark campaign's undetected index and names
// artifact bodies, as the service stores them, and its undetected
// faults by index. Every fault class runs, with IDDQ.
func storedArtifacts(t testing.TB, benchmark string) (index, names []byte, m *missedFaults) {
	t.Helper()
	req := CampaignRequest{Benchmark: benchmark, Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true}}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaignObserved(context.Background(), c, norm, nil)
	if err != nil {
		t.Fatal(err)
	}
	m = rep.missed()
	index = encodeIndex(m, m.u.key())
	if names, err = json.Marshal(m.u.names); err != nil {
		t.Fatal(err)
	}
	return index, names, m
}

// mult2Artifacts is storedArtifacts of mult2, whose exhaustive campaign
// leaves faults of every listed class undetected.
func mult2Artifacts(t testing.TB) (index, names []byte, m *missedFaults) {
	t.Helper()
	index, names, m = storedArtifacts(t, "mult2")
	for c, idx := range m.classes {
		if len(idx) == 0 {
			t.Fatalf("mult2 leaves class %d fully detected", c)
		}
	}
	return index, names, m
}

// sameMissed reports whether two decoded artifacts list the same faults
// of every class (an empty class and an absent one alike).
func sameMissed(a, b *missedFaults) bool {
	for c := range a.classes {
		if len(a.classes[c]) != len(b.classes[c]) {
			return false
		}
		for i := range a.classes[c] {
			if a.classes[c][i] != b.classes[c][i] {
				return false
			}
		}
	}
	return true
}

// TestUndetectedArtifactsRoundTrip: the stored index and names decode
// to the campaign's undetected faults, and render the body the cold
// campaign renders.
func TestUndetectedArtifactsRoundTrip(t *testing.T) {
	index, names, want := mult2Artifacts(t)
	x, err := decodeIndex(index)
	if err != nil {
		t.Fatal(err)
	}
	m, err := x.resolve(names)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMissed(m, want) {
		t.Fatalf("decoded faults %v, campaign's %v", m.classes, want.classes)
	}
	if got, wantBody := m.body(), want.body(); string(got) != string(wantBody) {
		t.Errorf("stored faults render\n%s\nthe campaign renders\n%s", got, wantBody)
	}
}

// TestUndetectedDecoderRejects: the index and names decoders refuse a
// bitset wider or narrower than its class, a set bit past the names, a
// names artifact whose length disagrees with the index, and bytes that
// are not the expected form.
func TestUndetectedDecoderRejects(t *testing.T) {
	index, names, _ := mult2Artifacts(t)
	var x undetectedIndex
	if err := json.Unmarshal(index, &x); err != nil {
		t.Fatal(err)
	}
	var list []string
	if err := json.Unmarshal(names, &list); err != nil {
		t.Fatal(err)
	}
	// edit returns the index with one change applied.
	edit := func(change func(*undetectedIndex)) []byte {
		y := x
		change(&y)
		b, err := json.Marshal(y)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// set encodes a bitset of width w with bits on.
	set := func(w int, on ...int) []byte {
		b := dict.NewBitset(w)
		for _, i := range on {
			b.Set(i)
		}
		return b.AppendBinary(nil)
	}
	trWidth := x.Faults - x.Lines
	// A stuck-at bitset of the class's width in the sparse codec (1),
	// whose one member, a delta from -1, is the first fault past it.
	delta := binary.AppendUvarint(nil, uint64(x.Lines+1))
	past := binary.AppendUvarint(nil, uint64(x.Lines))
	past = binary.AppendUvarint(append(past, 1), uint64(len(delta)))
	past = append(past, delta...)
	namesJSON := func(l []string) []byte {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name         string
		index, names []byte
	}{
		{"stuck-at bitset wider than its class", edit(func(y *undetectedIndex) { y.StuckAt = set(x.Lines+1, 0) }), names},
		{"stuck-at bitset narrower than its class", edit(func(y *undetectedIndex) { y.StuckAt = set(x.Lines-1, 0) }), names},
		{"transistor bitset wider than its class", edit(func(y *undetectedIndex) { y.Transistor = set(trWidth+64, 0) }), names},
		{"+IDDQ bitset narrower than its class", edit(func(y *undetectedIndex) { y.TransistorIDDQ = set(trWidth-1, 0) }), names},
		{"set bit past the names", edit(func(y *undetectedIndex) { y.StuckAt = past }), names},
		{"bitset with trailing bytes", edit(func(y *undetectedIndex) { y.Transistor = append(set(trWidth, 1), 0) }), names},
		{"names shorter than the index", index, namesJSON(list[:len(list)-1])},
		{"names longer than the index", index, namesJSON(append(list[:len(list):len(list)], "extra"))},
		{"index counting other faults", edit(func(y *undetectedIndex) { y.Faults++ }), names},
		{"more line faults than faults", edit(func(y *undetectedIndex) { y.Lines = y.Faults + 1 }), names},
		{"negative line faults", edit(func(y *undetectedIndex) { y.Lines = -1 }), names},
		{"invalid names key", edit(func(y *undetectedIndex) { y.Names = strings.ToUpper(y.Names) }), names},
		{"index not JSON", index[:len(index)/2], names},
		{"index a JSON array", []byte(`[1,2]`), names},
		{"bitset not base64", []byte(strings.Replace(string(index), `"stuck_at":"`, `"stuck_at":"!`, 1)), names},
		{"names not JSON", index, names[:len(names)/2]},
		{"names null", edit(func(y *undetectedIndex) {
			y.Faults, y.Lines, y.StuckAt, y.Transistor, y.TransistorIDDQ = 0, 0, nil, nil, nil
		}), []byte(`null`)},
		{"names of numbers", index, []byte(`[1,2,3]`)},
		{"names an object", index, []byte(`{"names":[]}`)},
	} {
		y, err := decodeIndex(tc.index)
		if err == nil {
			_, err = y.resolve(tc.names)
		}
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}

// FuzzUndetectedArtifacts drives the stored-faults decoder (decodeIndex,
// then resolve against a names body) with arbitrary bytes. It must
// never panic, and a pair it accepts must be consistent: every class's
// indices ascend inside the class's slice of the names, the body
// renders as JSON, and re-encoding the index decodes to the same
// faults.
func FuzzUndetectedArtifacts(f *testing.F) {
	index, names, _ := mult2Artifacts(f)
	f.Add(index, names)
	f.Add(index, names[:len(names)/2])
	index, names, _ = storedArtifacts(f, "c17")
	f.Add(index, names)
	f.Add([]byte(`{"names":"`+strings.Repeat("0", 64)+`","faults":0,"lines":0}`), []byte(`[]`))
	f.Fuzz(func(t *testing.T, index, names []byte) {
		x, err := decodeIndex(index)
		if err != nil {
			return
		}
		m, err := x.resolve(names)
		if err != nil {
			return
		}
		for c, idx := range m.classes {
			prev := -1
			for _, i := range idx {
				if i <= prev || i >= len(m.class(c)) {
					t.Fatalf("class %d lists %d after %d, class width %d", c, i, prev, len(m.class(c)))
				}
				prev = i
			}
		}
		if !json.Valid(m.body()) {
			t.Fatal("accepted faults render no JSON")
		}
		y, err := decodeIndex(encodeIndex(m, x.Names))
		if err != nil {
			t.Fatalf("re-encoded index refused: %v", err)
		}
		back, err := y.resolve(names)
		if err != nil {
			t.Fatalf("re-encoded index does not resolve: %v", err)
		}
		if !sameMissed(back, m) {
			t.Fatalf("re-encoded index lists %v, decoded %v", back.classes, m.classes)
		}
	})
}
