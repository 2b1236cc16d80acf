// Signature capture: per-fault pattern-detection bitsets harvested
// while a campaign runs, so building a fault dictionary needs no second
// simulation pass. A capture hangs off Simulator.Signatures; every
// engine driver (reference and packed — serial, grouped and parallel)
// honours it. With a capture attached the engines keep simulating past
// the first detection (fault dropping and the packed seed
// early-retirement are disabled) and read each fault's answers from the
// same full masks with the precedence the per-pattern reference sweep
// applies — per pattern the leak check precedes the output compare,
// across patterns the earliest wins; the voltage answer is the first
// output bit — so detections stay bit-identical to an uncaptured run,
// which the differential suites enforce.
package faultsim

import (
	"fmt"
	"math/bits"
)

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

// orLanes folds a lane-block mask into fault i's row: lane l in words
// maps to pattern patOff+l. Word-aligned offsets (the ungrouped packed
// chunks) take the direct OR path; fault-packed groups carry negative
// unaligned offsets and fold bit by bit.
func (c *SignatureCapture) orLanes(i int, patOff int, words []uint64, leak bool) {
	dst := c.out
	if leak {
		dst = c.leak
	}
	row := i * c.words
	if patOff >= 0 && patOff&63 == 0 {
		off := patOff >> 6
		for j, m := range words {
			if m != 0 {
				dst[row+off+j] |= m
			}
		}
		return
	}
	for j, m := range words {
		for m != 0 {
			l := j<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			k := patOff + l
			dst[row+k>>6] |= 1 << uint(k&63)
		}
	}
}
