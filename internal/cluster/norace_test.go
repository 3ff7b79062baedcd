//go:build !race

package cluster_test

// raceEnabled reports whether the tests run under the race detector (see
// race_test.go).
const raceEnabled = false
