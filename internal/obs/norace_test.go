//go:build !race

package obs

// raceEnabled reports whether the tests run under the race detector (see
// race_test.go).
const raceEnabled = false
