package bench

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cpsinw/internal/logic"
)

// The named-benchmark registry: the fixed Suite entries plus the
// parameterized corpus families, resolved lazily so a request for
// "mult50" builds a ~10k-gate circuit on demand instead of every
// Suite() caller paying for it.
//
// Family names (N, W, D, G decimal; SEED a decimal int64):
//
//	rca<N>              N-bit ripple-carry adder
//	parity<N>           N-input parity tree
//	mult<N>             N x N carry-save array multiplier (~4N^2 gates)
//	rcmult<N>           N x N ripple-carry array multiplier
//	alu<N>              width-N ALU (add/sub/and/or/xor + opcode decoder)
//	decoder<N>          balanced N-to-2^N decoder tree (~2^(N+1) gates)
//	crossbar<N>         2^N x 2^N decoded crossbar array (~3*4^N gates)
//	rand<SEED>x<G>      flat random DAG: 8 inputs, G gates
//	randl<SEED>_w<W>xd<D>  layered random circuit, W wide x D deep
//
// Fixed Suite names shadow the families (mult2/mult3 stay the flat
// legacy circuits the golden experiments pin), so cache keys and
// goldens are stable across the registry's introduction.

// maxGeneratedGates bounds what a single registry lookup will build;
// requests past it (e.g. decoder24 from an untrusted campaign request)
// are rejected, not attempted.
const maxGeneratedGates = 2_000_000

var familyRE = struct {
	rca, parity, mult, rcmult, alu, decoder, crossbar, rand, randl *regexp.Regexp
}{
	rca:      regexp.MustCompile(`^rca(\d+)$`),
	parity:   regexp.MustCompile(`^parity(\d+)$`),
	mult:     regexp.MustCompile(`^mult(\d+)$`),
	rcmult:   regexp.MustCompile(`^rcmult(\d+)$`),
	alu:      regexp.MustCompile(`^alu(\d+)$`),
	decoder:  regexp.MustCompile(`^decoder(\d+)$`),
	crossbar: regexp.MustCompile(`^crossbar(\d+)$`),
	rand:     regexp.MustCompile(`^rand(-?\d+)x(\d+)$`),
	randl:    regexp.MustCompile(`^randl(-?\d+)_w(\d+)xd(\d+)$`),
}

// Families describes the parameterized generator families for help
// text and error messages.
func Families() []string {
	return []string{
		"rca<N>", "parity<N>", "mult<N>", "rcmult<N>", "alu<N>",
		"decoder<N>", "crossbar<N>", "rand<SEED>x<GATES>", "randl<SEED>_w<W>xd<D>",
	}
}

// Names returns the fixed benchmark names, sorted.
func Names() []string {
	names := make([]string, 0, len(suite))
	for n := range suite {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get resolves a benchmark name: fixed Suite entries first (only the
// named one is built), then the embedded ISCAS corpus, then the
// parameterized families. Unknown names (and family parameters that
// would exceed maxGeneratedGates) return a descriptive error.
func Get(name string) (*logic.Circuit, error) {
	if build, ok := suite[name]; ok {
		return build(), nil
	}
	if m, err := iscas(); err == nil {
		if c, ok := m[name]; ok {
			return c, nil
		}
	}
	bound := func(label string, gates int) error {
		if gates > maxGeneratedGates {
			return fmt.Errorf("benchmark %q would need ~%d gates (limit %d)", label, gates, maxGeneratedGates)
		}
		return nil
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	switch {
	case familyRE.rca.MatchString(name):
		n := atoi(familyRE.rca.FindStringSubmatch(name)[1])
		if err := bound(name, 2*n); err != nil {
			return nil, err
		}
		return RippleCarryAdder(n), nil
	case familyRE.parity.MatchString(name):
		n := atoi(familyRE.parity.FindStringSubmatch(name)[1])
		if err := bound(name, n); err != nil {
			return nil, err
		}
		return ParityTree(n), nil
	case familyRE.mult.MatchString(name):
		n := atoi(familyRE.mult.FindStringSubmatch(name)[1])
		if err := bound(name, 4*n*n); err != nil {
			return nil, err
		}
		return MultN(n), nil
	case familyRE.rcmult.MatchString(name):
		n := atoi(familyRE.rcmult.FindStringSubmatch(name)[1])
		if err := bound(name, 4*n*n); err != nil {
			return nil, err
		}
		return MultRC(n), nil
	case familyRE.alu.MatchString(name):
		n := atoi(familyRE.alu.FindStringSubmatch(name)[1])
		if err := bound(name, 30*n); err != nil {
			return nil, err
		}
		return ALU(n), nil
	case familyRE.decoder.MatchString(name):
		n := atoi(familyRE.decoder.FindStringSubmatch(name)[1])
		if err := bound(name, 4<<n); err != nil {
			return nil, err
		}
		return DecoderN(n), nil
	case familyRE.crossbar.MatchString(name):
		n := atoi(familyRE.crossbar.FindStringSubmatch(name)[1])
		est := maxGeneratedGates + 1 // huge n would overflow the shift
		if n <= 15 {
			est = 3 << (2 * n)
		}
		if err := bound(name, est); err != nil {
			return nil, err
		}
		return Crossbar(n), nil
	case familyRE.rand.MatchString(name):
		m := familyRE.rand.FindStringSubmatch(name)
		seed, _ := strconv.ParseInt(m[1], 10, 64)
		g := atoi(m[2])
		if err := bound(name, g); err != nil {
			return nil, err
		}
		return Random(seed, 8, g), nil
	case familyRE.randl.MatchString(name):
		m := familyRE.randl.FindStringSubmatch(name)
		seed, _ := strconv.ParseInt(m[1], 10, 64)
		w, d := atoi(m[2]), atoi(m[3])
		if w > 0 && d > maxGeneratedGates/w {
			return nil, fmt.Errorf("benchmark %q would need ~%d gates (limit %d)", name, w*d, maxGeneratedGates)
		}
		return RandomLayered(seed, w, d), nil
	}
	return nil, fmt.Errorf("unknown benchmark %q (built-ins: %s; iscas: %s; families: %s)",
		name, strings.Join(Names(), ", "), strings.Join(ISCASNames(), ", "), strings.Join(Families(), ", "))
}
