// Package dict implements the persistent packed-signature fault
// dictionary: per-fault pattern-detection bitsets harvested from a
// simulation campaign, compressed into a versioned content-addressed
// artifact that answers diagnosis queries after a process restart
// without re-simulating anything.
//
// The package is deliberately self-contained — faults are opaque string
// keys and signatures are plain bitsets — so the simulator, the ATPG
// compactor, the HTTP service and the CLI can all share one artifact
// format without import cycles. Its one dependency inside the module
// is the result store's key check and atomic writer, which Store
// persists artifacts through.
package dict

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
)

// Bitset is a fixed-width bitset over pattern indices. The zero value
// is an empty zero-width set.
type Bitset struct {
	bits  int
	words []uint64
}

// NewBitset returns an all-zero bitset of the given width.
func NewBitset(nbits int) Bitset {
	if nbits < 0 {
		nbits = 0
	}
	return Bitset{bits: nbits, words: make([]uint64, (nbits+63)/64)}
}

// FromWords copies a packed word slice (as produced by the simulator's
// signature capture) into a bitset, masking any tail bits beyond nbits.
func FromWords(nbits int, words []uint64) Bitset {
	b := NewBitset(nbits)
	copy(b.words, words)
	b.maskTail()
	return b
}

func (b *Bitset) maskTail() {
	if r := uint(b.bits & 63); r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

// Bits reports the width of the set.
func (b Bitset) Bits() int { return b.bits }

// Set marks pattern i.
func (b Bitset) Set(i int) {
	if i < 0 || i >= b.bits {
		return
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear unmarks pattern i.
func (b Bitset) Clear(i int) {
	if i < 0 || i >= b.bits {
		return
	}
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Test reports whether pattern i is marked.
func (b Bitset) Test(i int) bool {
	if i < 0 || i >= b.bits {
		return false
	}
	return b.words[i>>6]>>uint(i&63)&1 == 1
}

// Count returns the number of marked patterns.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any pattern is marked.
func (b Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether two bitsets have identical width and contents.
func (b Bitset) Equal(o Bitset) bool {
	if b.bits != o.bits {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (b Bitset) Clone() Bitset {
	c := Bitset{bits: b.bits, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Members lists the marked pattern indices in ascending order.
func (b Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		for w != 0 {
			l := bits.TrailingZeros64(w)
			out = append(out, wi<<6+l)
			w &= w - 1
		}
	}
	return out
}

// Key returns a compact binary identity for the set: the little-endian
// word image. Within one dictionary every signature has the same width,
// so equal keys mean equal sets. This replaces decimal string rendering
// in hot class-partition loops.
func (b Bitset) Key() string {
	return string(b.appendImage(make([]byte, 0, 8*len(b.words))))
}

// appendImage appends the set's little-endian word image.
func (b Bitset) appendImage(dst []byte) []byte {
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// AndCount returns the cardinality of the intersection. Widths must
// match; a mismatch counts over the shorter word span.
func AndCount(a, b Bitset) int {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a.words[i] & b.words[i])
	}
	return c
}

// And returns a∩b at a's width.
func And(a, b Bitset) Bitset {
	c := NewBitset(a.bits)
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	for i := 0; i < n; i++ {
		c.words[i] = a.words[i] & b.words[i]
	}
	return c
}

// AndAnyClear reports whether a∩b is non-empty after clearing bit i
// from the mask b. Used by the compactor to ask "is this fault still
// covered if pattern i is dropped" in one pass.
func AndAnyClear(a, mask Bitset, i int) bool {
	n := len(a.words)
	if len(mask.words) < n {
		n = len(mask.words)
	}
	drop := i >> 6
	bit := uint64(1) << uint(i&63)
	for w := 0; w < n; w++ {
		m := mask.words[w]
		if w == drop {
			m &^= bit
		}
		if a.words[w]&m != 0 {
			return true
		}
	}
	return false
}

// Entry is one fault's full detection signature: the patterns whose
// output response deviates, and the patterns under which the fault
// leaks (IDDQ). Fault is an opaque stable key (core.Fault.String()).
type Entry struct {
	Fault string
	Class string
	Out   Bitset
	Leak  Bitset
}

// Detected reports whether the entry's fault is detected at all.
func (e Entry) Detected() bool { return e.Out.Any() || e.Leak.Any() }

// Resolution summarises the diagnostic power of a dictionary: how many
// equivalence classes the pattern set splits the fault universe into.
type Resolution struct {
	Faults              int `json:"faults"`
	Detected            int `json:"detected"`
	Classes             int `json:"classes"`
	UniquelyDiagnosable int `json:"uniquely_diagnosable"`
}

// Meta describes a dictionary artifact. It is stored as the JSON
// header of the on-disk format and served verbatim by the dictionary
// metadata endpoint.
type Meta struct {
	Version    int        `json:"version"`
	Key        string     `json:"key"`
	Circuit    string     `json:"circuit"`
	Patterns   int        `json:"patterns"`
	Entries    int        `json:"entries"`
	Seed       int64      `json:"seed,omitempty"`
	Engine     string     `json:"engine,omitempty"`
	IDDQ       bool       `json:"iddq"`
	CreatedAt  string     `json:"created_at,omitempty"`
	Resolution Resolution `json:"resolution"`
}

// Dictionary is the in-memory form of an artifact.
type Dictionary struct {
	Meta    Meta
	Entries []Entry
}

// MaxPatterns is the widest signature a dictionary holds: 16x the
// 4096 patterns of the widest exhaustive campaign. Normalize and
// Unmarshal refuse wider dictionaries, and campaign requests refuse
// pattern budgets above it, so every accepted campaign writes an
// artifact the decoder reads back.
const MaxPatterns = 1 << 16

// classLabel renders class id as "c" and at least three digits.
func classLabel(id int) string {
	s := strconv.Itoa(id)
	if len(s) < 3 {
		s = "00"[:3-len(s)] + s
	}
	return "c" + s
}

// Normalize sorts entries by fault key, recomputes class labels and the
// resolution summary, and validates signature widths. Write calls it
// before serialising, so artifacts are canonical byte-for-byte given
// the same content. Classes are numbered in fault-key order of their
// first member.
func (d *Dictionary) Normalize() error {
	if d.Meta.Patterns < 0 || d.Meta.Patterns > MaxPatterns {
		return fmt.Errorf("dict: %d patterns outside [0,%d]", d.Meta.Patterns, MaxPatterns)
	}
	byFault := func(a, b int) bool { return d.Entries[a].Fault < d.Entries[b].Fault }
	if !sort.SliceIsSorted(d.Entries, byFault) {
		sort.Slice(d.Entries, byFault)
	}
	// Classes are keyed on the combined signature's word image (Out and
	// Leak share the dictionary's width, so it is injective). The lookup
	// reads a reused buffer without allocating; only a new class stores
	// its key and formats its label.
	classOf := make(map[string]int, len(d.Entries))
	var labels []string
	var sizes []int
	var key []byte
	res := Resolution{Faults: len(d.Entries)}
	for i := range d.Entries {
		e := &d.Entries[i]
		if e.Out.Bits() != d.Meta.Patterns || e.Leak.Bits() != d.Meta.Patterns {
			return fmt.Errorf("dict: entry %q signature width %d/%d, dictionary has %d patterns",
				e.Fault, e.Out.Bits(), e.Leak.Bits(), d.Meta.Patterns)
		}
		if i > 0 && e.Fault == d.Entries[i-1].Fault {
			return fmt.Errorf("dict: duplicate fault key %q", e.Fault)
		}
		if e.Detected() {
			res.Detected++
		}
		key = e.Leak.appendImage(e.Out.appendImage(key[:0]))
		id, ok := classOf[string(key)]
		if !ok {
			id = len(labels)
			classOf[string(key)] = id
			labels = append(labels, classLabel(id))
			sizes = append(sizes, 0)
		}
		sizes[id]++
		e.Class = labels[id]
	}
	res.Classes = len(labels)
	for _, n := range sizes {
		if n == 1 {
			res.UniquelyDiagnosable++
		}
	}
	d.Meta.Entries = len(d.Entries)
	d.Meta.Resolution = res
	return nil
}

// Lookup returns the entry for a fault key, if present. Entries must be
// sorted (Normalize, or any dictionary read from disk).
func (d *Dictionary) Lookup(fault string) (Entry, bool) {
	i := sort.Search(len(d.Entries), func(i int) bool { return d.Entries[i].Fault >= fault })
	if i < len(d.Entries) && d.Entries[i].Fault == fault {
		return d.Entries[i], true
	}
	return Entry{}, false
}
