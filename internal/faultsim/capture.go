// Signature capture: per-fault pattern-detection bitsets harvested
// while a campaign runs, so building a fault dictionary needs no second
// simulation pass. A capture hangs off Simulator.Signatures; the
// stuck-at and transistor drivers of both engines, at any worker count,
// honour it.
// With a capture attached the engines keep simulating past the first
// detection: fault dropping is disabled, so the packed engine sweeps
// every chunk, of one uniform width (a pack built under capture opens
// with no head chunk), and over one chunk a campaign costs exactly the
// evaluations of an uncaptured one over the same chunk (a fault's
// detecting lanes are its flip lanes ANDed with its site's
// observability mask, so the full signature is at hand).
// Each fault's answers are read from the same full masks with the
// precedence the per-pattern reference sweep applies — per pattern the
// leak check precedes the output compare, across patterns the earliest
// wins; the voltage answer is the first output bit — so detections stay
// bit-identical to an uncaptured run, which the differential suites
// enforce.
package faultsim

import "fmt"

// SignatureCapture accumulates one campaign's per-fault signatures:
// for fault index i (position in the campaign's fault list) and
// pattern index k, Out records a definite primary-output difference
// and Leak an IDDQ-leak signature (leaks are only recorded when the
// campaign observes IDDQ). The bitsets are flat fault-major []uint64
// planes, preallocated up front; concurrent workers write disjoint
// fault rows, so no locking is needed.
type SignatureCapture struct {
	NFaults   int
	NPatterns int

	words int // words per fault row
	out   []uint64
	leak  []uint64
}

// NewSignatureCapture sizes a capture for one campaign.
func NewSignatureCapture(nFaults, nPatterns int) *SignatureCapture {
	w := (nPatterns + 63) / 64
	return &SignatureCapture{
		NFaults:   nFaults,
		NPatterns: nPatterns,
		words:     w,
		out:       make([]uint64, nFaults*w),
		leak:      make([]uint64, nFaults*w),
	}
}

// Words is the per-fault row width in 64-bit words.
func (c *SignatureCapture) Words() int { return c.words }

// Out returns fault i's output-detection bitset (live view, one word
// per 64 patterns).
func (c *SignatureCapture) Out(i int) []uint64 {
	return c.out[i*c.words : (i+1)*c.words : (i+1)*c.words]
}

// Leak returns fault i's IDDQ-detection bitset (live view).
func (c *SignatureCapture) Leak(i int) []uint64 {
	return c.leak[i*c.words : (i+1)*c.words : (i+1)*c.words]
}

// check validates the capture against a campaign's dimensions; drivers
// call it on entry so a mis-sized capture fails loudly instead of
// recording bits for the wrong faults.
func (c *SignatureCapture) check(nFaults, nPatterns int) error {
	if c.NFaults != nFaults || c.NPatterns != nPatterns {
		return fmt.Errorf("faultsim: signature capture sized %dx%d, campaign is %dx%d",
			c.NFaults, c.NPatterns, nFaults, nPatterns)
	}
	return nil
}

// setOut marks pattern k as output-detecting for fault i.
func (c *SignatureCapture) setOut(i, k int) {
	c.out[i*c.words+k>>6] |= 1 << uint(k&63)
}

// setLeak marks pattern k as IDDQ-detecting for fault i.
func (c *SignatureCapture) setLeak(i, k int) {
	c.leak[i*c.words+k>>6] |= 1 << uint(k&63)
}

// orLanes folds a chunk's lane mask into fault i's row: lane l in words
// maps to pattern patOff+l, and patOff, a chunk start, is word-aligned.
// Empty words are skipped: a chunk's last words may lie past the row
// (lanes beyond the campaign's patterns never detect).
func (c *SignatureCapture) orLanes(i, patOff int, words []uint64, leak bool) {
	dst := c.out
	if leak {
		dst = c.leak
	}
	row := i*c.words + patOff>>6
	for j, m := range words {
		if m != 0 {
			dst[row+j] |= m
		}
	}
}
