package faultsim

import (
	"fmt"
	"slices"

	"cpsinw/internal/logic"
)

// PatternSet is a pattern list in the dense form every packed sweep
// consumes: one value per primary input, in C.Inputs order, held as
// 64-lane value/known planes. Pattern k's value of input i is lane k%64
// of word i of block k/64, so a sweep gathers each lane block's input
// words instead of reading every pattern by name. Sets grow one row at a
// time (Append); the Pattern maps of the edges convert in and out
// (PatternSetOf, Patterns).
//
// The X rule, for every entry point: an input a Pattern map lacks, and
// any value but 0 and 1, is X. Ternary sweeps (transistor faults,
// channel breaks, bridges) simulate it as X; line stuck-at sweeps
// simulate binary patterns and read it as 0.
type PatternSet struct {
	inputs []string
	n      int
	words  []logic.PackedVec // block-major: block b's word of input i at b*len(inputs)+i
}

// NewPatternSet returns an empty set over c's primary inputs with room
// for n patterns, so appending n rows allocates nothing more.
func NewPatternSet(c *logic.Circuit, n int) *PatternSet {
	return &PatternSet{inputs: c.Inputs, words: make([]logic.PackedVec, 0, (max(n, 0)+63)/64*len(c.Inputs))}
}

// PatternSetOf converts a Pattern list over c to a set: inputs missing
// from a map are X, and names c lacks are ignored.
func PatternSetOf(c *logic.Circuit, patterns []Pattern) *PatternSet {
	ps := NewPatternSet(c, len(patterns))
	row := make([]logic.V, len(c.Inputs))
	for _, p := range patterns {
		for i, pi := range c.Inputs {
			v, ok := p[pi]
			if !ok {
				v = logic.LX
			}
			row[i] = v
		}
		ps.Append(row)
	}
	return ps
}

// ExhaustivePatternSet enumerates all 2^n input patterns of a circuit in
// the order ExhaustivePatterns lists them: pattern v sets input i to
// bit i of v (intended for small circuits; callers should bound n).
func ExhaustivePatternSet(c *logic.Circuit) *PatternSet {
	n := len(c.Inputs)
	ps := NewPatternSet(c, 1<<uint(n))
	row := make([]logic.V, n)
	for v := 0; v < 1<<uint(n); v++ {
		for i := range row {
			row[i] = logic.FromBool(v>>uint(i)&1 == 1)
		}
		ps.Append(row)
	}
	return ps
}

// Len returns the number of patterns in the set.
func (ps *PatternSet) Len() int { return ps.n }

// Append adds one pattern: row holds one value per primary input, in
// C.Inputs order. The set keeps no reference to row.
func (ps *PatternSet) Append(row []logic.V) {
	nIn := len(ps.inputs)
	if len(row) != nIn {
		panic(fmt.Sprintf("faultsim: pattern row of %d values for %d inputs", len(row), nIn))
	}
	lane := ps.n & 63
	if lane == 0 {
		// A new block: grow in place, without a temporary (a set sized
		// by NewPatternSet never reallocates).
		n := len(ps.words)
		ps.words = slices.Grow(ps.words, nIn)[:n+nIn]
		clear(ps.words[n:])
	}
	blk := ps.words[len(ps.words)-nIn:]
	for i, v := range row {
		blk[i] = blk[i].WithLane(lane, v)
	}
	ps.n++
}

// Patterns converts the set back to Pattern maps, one per pattern, each
// assigning every primary input (X included).
func (ps *PatternSet) Patterns() []Pattern {
	out := make([]Pattern, ps.n)
	for k := range out {
		blk := ps.words[(k>>6)*len(ps.inputs):]
		p := make(Pattern, len(ps.inputs))
		for i, pi := range ps.inputs {
			p[pi] = blk[i].Get(k & 63)
		}
		out[k] = p
	}
	return out
}

// specified reports whether no pattern of the set has an X input, so
// its binary chunks equal its ternary ones.
func (ps *PatternSet) specified() bool {
	nIn := len(ps.inputs)
	for k, v := range ps.words {
		if v.Known != ps.validWord(k/nIn) {
			return false
		}
	}
	return true
}

// validWord returns the lanes of block b that hold a pattern.
func (ps *PatternSet) validWord(b int) uint64 {
	switch left := ps.n - b<<6; {
	case left >= 64:
		return ^uint64(0)
	case left <= 0:
		return 0
	default:
		return 1<<uint(left) - 1
	}
}

// gather writes the input words of the w-block chunk starting at block
// b0 into in (input-major, stride w) and its pattern lanes into valid
// (w words). Lanes past the last pattern are X and invalid. A binary
// chunk reads every X lane of a pattern as 0.
func (ps *PatternSet) gather(in []logic.PackedVec, valid []uint64, b0, w int, binary bool) {
	nIn := len(ps.inputs)
	for j := 0; j < w; j++ {
		b := b0 + j
		valid[j] = ps.validWord(b)
		for i := 0; i < nIn; i++ {
			var v logic.PackedVec
			if valid[j] != 0 {
				v = ps.words[b*nIn+i]
			}
			if binary {
				v.Known = valid[j]
			}
			in[i*w+j] = v
		}
	}
}
