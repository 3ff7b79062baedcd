package server

// SetHistSegmentMin lets the external test package seal dispatch history
// in segments far shorter than production's, so small scripted loads cross
// the sealing path; it returns a func restoring the previous value. Only
// for serial test code: the variable is read by every compaction.
func SetHistSegmentMin(n int) (restore func()) {
	old := histSegmentMin
	histSegmentMin = n
	return func() { histSegmentMin = old }
}
