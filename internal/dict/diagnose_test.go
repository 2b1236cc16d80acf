package dict

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// diagnoseBySort is the ranking Diagnose must reproduce: every
// overlapping entry scored, all of them sorted by score descending then
// fault ascending, the first topK kept.
func diagnoseBySort(d *Dictionary, obs Observation, topK int) []Candidate {
	if topK <= 0 {
		topK = 5
	}
	cands := []Candidate{}
	obsLen := obs.Out.Count() + obs.Leak.Count()
	for _, e := range d.Entries {
		inter := AndCount(e.Out, obs.Out) + AndCount(e.Leak, obs.Leak)
		if inter == 0 {
			continue
		}
		sigLen := e.Out.Count() + e.Leak.Count()
		union := sigLen + obsLen - inter
		cands = append(cands, Candidate{
			Fault: e.Fault, Class: e.Class,
			Score:        float64(inter) / float64(union),
			Intersection: inter, SignatureLen: sigLen, Exact: inter == union,
		})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Fault < cands[b].Fault
	})
	if len(cands) > topK {
		cands = cands[:topK]
	}
	return cands
}

// randomDictionary builds n entries over few patterns and a handful of
// distinct signatures, so many entries tie on score. Entry order is
// shuffled before Normalize, as a campaign's classes interleave.
func randomDictionary(rng *rand.Rand, n, patterns int) *Dictionary {
	sigs := make([]Bitset, 1+rng.Intn(12))
	for i := range sigs {
		sigs[i] = randomBitset(rng, patterns, 0.3)
	}
	d := &Dictionary{Meta: Meta{Patterns: patterns}}
	for i := 0; i < n; i++ {
		e := Entry{
			Fault: fmt.Sprintf("g%d.t%d/f", rng.Intn(1000), i),
			Out:   sigs[rng.Intn(len(sigs))].Clone(),
			Leak:  NewBitset(patterns),
		}
		if rng.Intn(3) == 0 {
			e.Leak = sigs[rng.Intn(len(sigs))].Clone()
		}
		d.Entries = append(d.Entries, e)
	}
	rng.Shuffle(len(d.Entries), func(a, b int) { d.Entries[a], d.Entries[b] = d.Entries[b], d.Entries[a] })
	if err := d.Normalize(); err != nil {
		panic(err)
	}
	return d
}

// TestDiagnoseMatchesFullSort: the bounded top-K pass returns exactly
// what sorting every candidate returns, over random dictionaries with
// many equal scores and every kind of topK (default, one, fewer and
// more than the candidates).
func TestDiagnoseMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		patterns := 1 + rng.Intn(24)
		d := randomDictionary(rng, rng.Intn(300), patterns)
		obs := Observation{Out: randomBitset(rng, patterns, 0.4), Leak: randomBitset(rng, patterns, 0.1)}
		if len(d.Entries) > 0 && rng.Intn(2) == 0 {
			e := d.Entries[rng.Intn(len(d.Entries))]
			obs = Observation{Out: e.Out.Clone(), Leak: e.Leak.Clone()}
		}
		for _, k := range []int{0, 1, 2, 5, 17, 1000} {
			got, want := d.Diagnose(obs, k), diagnoseBySort(d, obs, k)
			if got == nil {
				t.Fatalf("trial %d topK %d: nil candidates, want a non-nil slice", trial, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d topK %d: got %v\nwant %v", trial, k, got, want)
			}
		}
	}
}

// BenchmarkDiagnose ranks a c432-sized dictionary (1,998 faults, 256
// patterns) against one fault's own signature at the default topK.
func BenchmarkDiagnose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := &Dictionary{Meta: Meta{Patterns: 256}}
	for i := 0; i < 1998; i++ {
		d.Entries = append(d.Entries, Entry{
			Fault: fmt.Sprintf("g%04d/f", i),
			Out:   randomBitset(rng, 256, 0.05),
			Leak:  randomBitset(rng, 256, 0.02),
		})
	}
	if err := d.Normalize(); err != nil {
		b.Fatal(err)
	}
	e := d.Entries[len(d.Entries)/2]
	obs := Observation{Out: e.Out, Leak: e.Leak}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Diagnose(obs, 0)
	}
}
