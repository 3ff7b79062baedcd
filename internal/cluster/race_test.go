//go:build race

package cluster_test

// raceEnabled reports whether the tests run under the race detector, which
// changes what a call allocates: its sync.Pool drops a share of what is put
// back.
const raceEnabled = true
