package dict

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Signature bitsets compress under three competing codecs and each one
// ships under whichever is smallest for that bitset:
//
//	0 raw    — the little-endian word image; dense signatures.
//	1 sparse — set-bit positions, delta-varint coded; the common case
//	           (most faults are detected by a handful of patterns).
//	2 runs   — alternating zero/one run lengths, varint coded, starting
//	           with the zero run; clustered signatures.
//
// Encoded form: one codec byte, a uvarint payload length, then the
// payload. The bit width is not repeated — it is fixed per dictionary
// and comes from the Meta header. A tie goes to the earlier codec in
// the list above.
//
// The encoder never builds a losing payload: it sizes the sparse and
// run codecs from whole words (set bits and run boundaries found with
// bit tricks, one varint length per member), stops sizing a codec as
// soon as it can no longer win, and appends only the winner.
const (
	codecRaw    = 0
	codecSparse = 1
	codecRuns   = 2
)

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// sparseLen returns the sparse payload size of b, or limit once the
// size reaches limit.
func sparseLen(b Bitset, limit int) int {
	n, prev := 0, -1
	for wi, w := range b.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if n += uvarintLen(uint64(i - prev)); n >= limit {
				return limit
			}
			prev = i
		}
	}
	return n
}

func appendSparse(dst []byte, b Bitset) []byte {
	prev := -1
	for wi, w := range b.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			dst = binary.AppendUvarint(dst, uint64(i-prev))
			prev = i
		}
	}
	return dst
}

// boundaries returns word wi's run starts: bit j is set when pattern
// 64*wi+j differs from the one before it (pattern -1 reads as 0). Bits
// past the set's width are clear, so the one-to-zero step at the width
// itself is masked off.
func (b Bitset) boundaries(wi int) uint64 {
	w := b.words[wi]
	var carry uint64
	if wi > 0 {
		carry = b.words[wi-1] >> 63
	}
	t := w ^ (w<<1 | carry)
	if r := uint(b.bits & 63); r != 0 && wi == len(b.words)-1 {
		t &= 1<<r - 1
	}
	return t
}

// runsLen returns the run payload size of b, or limit once the size
// reaches limit. Every run but the last ends at a boundary; the first
// (zero) run is empty when pattern 0 is marked.
func runsLen(b Bitset, limit int) int {
	if b.bits == 0 {
		return 0
	}
	n, start := 0, 0
	for wi := range b.words {
		for t := b.boundaries(wi); t != 0; t &= t - 1 {
			p := wi<<6 + bits.TrailingZeros64(t)
			if n += uvarintLen(uint64(p - start)); n >= limit {
				return limit
			}
			start = p
		}
	}
	return min(limit, n+uvarintLen(uint64(b.bits-start)))
}

func appendRuns(dst []byte, b Bitset) []byte {
	if b.bits == 0 {
		return dst
	}
	start := 0
	for wi := range b.words {
		for t := b.boundaries(wi); t != 0; t &= t - 1 {
			p := wi<<6 + bits.TrailingZeros64(t)
			dst = binary.AppendUvarint(dst, uint64(p-start))
			start = p
		}
	}
	return binary.AppendUvarint(dst, uint64(b.bits-start))
}

// appendBitset appends the smallest encoding of b.
func appendBitset(dst []byte, b Bitset) []byte {
	codec, size := byte(codecRaw), 8*len(b.words)
	// Every set bit costs the sparse codec at least one byte.
	if b.Count() < size {
		if n := sparseLen(b, size); n < size {
			codec, size = codecSparse, n
		}
	}
	if n := runsLen(b, size); n < size {
		codec, size = codecRuns, n
	}
	dst = append(dst, codec)
	dst = binary.AppendUvarint(dst, uint64(size))
	switch codec {
	case codecSparse:
		return appendSparse(dst, b)
	case codecRuns:
		return appendRuns(dst, b)
	}
	return b.appendImage(dst)
}

// setRange marks patterns [lo, hi).
func (b Bitset) setRange(lo, hi int) {
	for lo < hi {
		wi, off := lo>>6, uint(lo&63)
		n := min(64-int(off), hi-lo)
		b.words[wi] |= (^uint64(0) >> uint(64-n)) << off
		lo += n
	}
}

// decodeBitset consumes one encoded bitset of width nbits from src and
// returns the remaining bytes.
func decodeBitset(src []byte, nbits int) (Bitset, []byte, error) {
	if len(src) < 2 {
		return Bitset{}, nil, fmt.Errorf("dict: truncated bitset header")
	}
	codec := src[0]
	n, sz := binary.Uvarint(src[1:])
	if sz <= 0 || n > uint64(len(src)-1-sz) {
		return Bitset{}, nil, fmt.Errorf("dict: truncated bitset payload")
	}
	payload := src[1+sz : 1+sz+int(n)]
	rest := src[1+sz+int(n):]
	b := NewBitset(nbits)
	switch codec {
	case codecRaw:
		if len(payload) != 8*len(b.words) {
			return Bitset{}, nil, fmt.Errorf("dict: raw bitset payload %d bytes, want %d", len(payload), 8*len(b.words))
		}
		for i := range b.words {
			b.words[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		// The encoder writes a clear tail, so set bits past the width
		// are damage, not padding.
		if last := len(b.words) - 1; last >= 0 {
			w := b.words[last]
			if b.maskTail(); b.words[last] != w {
				return Bitset{}, nil, fmt.Errorf("dict: raw bitset sets bits past its width %d", nbits)
			}
		}
	case codecSparse:
		prev := -1
		for len(payload) > 0 {
			d, sz := binary.Uvarint(payload)
			if sz <= 0 {
				return Bitset{}, nil, fmt.Errorf("dict: bad sparse delta")
			}
			payload = payload[sz:]
			i := prev + int(d)
			if i <= prev || i >= nbits {
				return Bitset{}, nil, fmt.Errorf("dict: sparse bit %d out of range [0,%d)", i, nbits)
			}
			b.Set(i)
			prev = i
		}
	case codecRuns:
		pos, cur := 0, false
		for len(payload) > 0 {
			run, sz := binary.Uvarint(payload)
			if sz <= 0 {
				return Bitset{}, nil, fmt.Errorf("dict: bad run length")
			}
			payload = payload[sz:]
			if uint64(nbits-pos) < run {
				return Bitset{}, nil, fmt.Errorf("dict: run overflows %d-bit signature", nbits)
			}
			if cur {
				b.setRange(pos, pos+int(run))
			}
			pos += int(run)
			cur = !cur
		}
		if pos != nbits {
			return Bitset{}, nil, fmt.Errorf("dict: runs cover %d of %d bits", pos, nbits)
		}
	default:
		return Bitset{}, nil, fmt.Errorf("dict: unknown bitset codec %d", codec)
	}
	return b, rest, nil
}

// AppendBinary appends b's self-describing encoding: its width as a
// uvarint, then the smallest of the codecs above, as a dictionary
// stores each signature.
func (b Bitset) AppendBinary(dst []byte) []byte {
	return appendBitset(binary.AppendUvarint(dst, uint64(b.bits)), b)
}

// DecodeBitset decodes one AppendBinary encoding, which must be all of
// src, of a bitset that must be nbits wide: a bitset of another width,
// a set bit past the width, a truncated payload or trailing bytes are
// errors. Nothing is allocated for a width other than nbits.
func DecodeBitset(src []byte, nbits int) (Bitset, error) {
	w, sz := binary.Uvarint(src)
	if sz <= 0 {
		return Bitset{}, fmt.Errorf("dict: truncated bitset width")
	}
	if nbits < 0 || w != uint64(nbits) {
		return Bitset{}, fmt.Errorf("dict: %d-bit bitset, want %d bits", w, nbits)
	}
	b, rest, err := decodeBitset(src[sz:], nbits)
	if err != nil {
		return Bitset{}, err
	}
	if len(rest) != 0 {
		return Bitset{}, fmt.Errorf("dict: %d bytes after the bitset", len(rest))
	}
	return b, nil
}
