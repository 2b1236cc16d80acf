package logic

// N×64-lane blocks: the packed engines widen the 64-lane PackedVec to
// blocks of 1, 2 or 4 bitplane words (64/128/256 ternary lanes per
// net), stored word-major. Every Kleene bitplane kernel in
// EvalKindPacked is lane-wise — pure bitwise ops, no cross-lane carries
// — so EvalBlock and the packed engines evaluate a width-w block as w
// independent per-word EvalKindPacked calls, and lane invariance at any
// width follows from the 64-lane property suites.

// MaxLaneWords is the widest supported lane block (256 lanes).
const MaxLaneWords = 4

// ValidLaneWords reports whether w is a supported block width.
func ValidLaneWords(w int) bool { return w == 1 || w == 2 || w == 4 }

// FirstLaneBlock returns the lowest set lane across the words of a
// block mask, or 64*len(m) when the mask is empty.
func FirstLaneBlock(m []uint64) int {
	for j, w := range m {
		if w != 0 {
			return j<<6 + FirstLane(w)
		}
	}
	return len(m) << 6
}
