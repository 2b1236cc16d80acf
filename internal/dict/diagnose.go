package dict

// Observation is a failing device's tester response: the patterns whose
// outputs mismatched and (when the campaign observed IDDQ) the patterns
// under which the device leaked. Widths must match the dictionary's
// pattern count.
type Observation struct {
	Out  Bitset
	Leak Bitset
}

// ObservationFrom builds an observation from explicit pattern index
// lists, the shape the diagnosis API accepts.
func ObservationFrom(nPatterns int, failing, leaking []int) Observation {
	o := Observation{Out: NewBitset(nPatterns), Leak: NewBitset(nPatterns)}
	for _, i := range failing {
		o.Out.Set(i)
	}
	for _, i := range leaking {
		o.Leak.Set(i)
	}
	return o
}

// Candidate is one ranked diagnosis: a stored fault whose signature
// overlaps the observation, scored by Jaccard similarity over the
// combined out+leak planes.
type Candidate struct {
	Fault        string  `json:"fault"`
	Class        string  `json:"class"`
	Score        float64 `json:"score"`
	Intersection int     `json:"intersection"`
	SignatureLen int     `json:"signature_len"`
	Exact        bool    `json:"exact"`
}

// Diagnose ranks dictionary faults against the observation in one
// bitset-AND pass over the entries — no simulation. Ranking is fully
// deterministic: score descending, then fault key ascending, so equal-
// score candidates always come back in the same order. topK <= 0 means
// 5, matching the interactive default. The pass keeps only the topK
// best candidates seen so far, in a heap whose root is the worst of
// them, so a dictionary of n entries costs O(n log topK), not a sort of
// every overlapping entry.
func (d *Dictionary) Diagnose(obs Observation, topK int) []Candidate {
	if topK <= 0 {
		topK = 5
	}
	obsLen := obs.Out.Count() + obs.Leak.Count()
	top := make(rankHeap, 0, min(topK, len(d.Entries)))
	for i := range d.Entries {
		e := &d.Entries[i]
		inter := AndCount(e.Out, obs.Out) + AndCount(e.Leak, obs.Leak)
		if inter == 0 {
			continue
		}
		sigLen := e.Out.Count() + e.Leak.Count()
		union := sigLen + obsLen - inter
		c := Candidate{
			Fault:        e.Fault,
			Class:        e.Class,
			Score:        float64(inter) / float64(union),
			Intersection: inter,
			SignatureLen: sigLen,
			Exact:        inter == union,
		}
		switch {
		case len(top) < topK:
			top.push(c)
		case ranksBefore(&c, &top[0]):
			top[0] = c
			top.down(0)
		}
	}
	// Popping the worst first fills the answer from its end.
	cands := make([]Candidate, len(top))
	for i := len(cands) - 1; i >= 0; i-- {
		cands[i] = top.pop()
	}
	return cands
}

// ranksBefore is the diagnosis order: score descending, then fault key
// ascending.
func ranksBefore(a, b *Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Fault < b.Fault
}

// rankHeap is a binary heap of candidates whose root ranks last.
type rankHeap []Candidate

func (h *rankHeap) push(c Candidate) {
	*h = append(*h, c)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !ranksBefore(&s[parent], &s[i]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes and returns the root, the candidate ranked last.
func (h *rankHeap) pop() Candidate {
	s := *h
	root := s[0]
	s[0] = s[len(s)-1]
	*h = s[:len(s)-1]
	h.down(0)
	return root
}

// down sifts h[i] down to its place, restoring the heap after h[i] was
// replaced.
func (h rankHeap) down(i int) {
	for {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h) && ranksBefore(&h[worst], &h[child]) {
				worst = child
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Escapes lists fault keys with empty signatures — faults this pattern
// set can never diagnose because it never detects them.
func (d *Dictionary) Escapes() []string {
	out := []string{}
	for i := range d.Entries {
		if !d.Entries[i].Detected() {
			out = append(out, d.Entries[i].Fault)
		}
	}
	return out
}
