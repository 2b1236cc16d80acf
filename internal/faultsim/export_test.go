package faultsim

// SetLaneWords pins the packed engine's lane-block width (see
// Simulator.laneWords) for the external test package, whose capture
// suites cover every width.
func (s *Simulator) SetLaneWords(w int) { s.laneWords = w }

// packedBaselines packs the pattern set into uniform chunks of w lane
// words, for the tests that check baselines and masks chunk by chunk.
func (s *Simulator) packedBaselines(patterns *PatternSet, w int, binary bool) []packedBase {
	return s.packChunks(patterns, w, false, binary).bases
}
