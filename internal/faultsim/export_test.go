package faultsim

// SetLaneWords pins the packed engine's lane-block width (see
// Simulator.laneWords) for the external test package, whose capture
// suites cover every width.
func (s *Simulator) SetLaneWords(w int) { s.laneWords = w }
