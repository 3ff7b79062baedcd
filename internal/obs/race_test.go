//go:build race

package obs

// raceEnabled reports whether the tests run under the race detector, which
// changes what a call allocates: its sync.Pool drops a share of what is
// put back, so encoding/json's pooled encoder state is rebuilt at random.
const raceEnabled = true
