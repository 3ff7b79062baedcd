package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// DefaultLatencyBuckets are the upper bounds (seconds) of request-latency
// histograms: powers of four from 16µs to ~67ms. The implicit +Inf bucket
// is always present and not listed.
var DefaultLatencyBuckets = []float64{
	16e-6, 64e-6, 256e-6, 1024e-6, 4096e-6, 16384e-6, 65536e-6,
}

// QuantaBuckets are the upper bounds for virtual-time lag histograms,
// measured in quanta. Theorem 3 bounds PD²-DVQ tardiness by one quantum,
// so the interesting resolution is below 1; anything above 1 landing
// outside the 1-bucket is a theorem violation made visible.
var QuantaBuckets = []float64{0, 0.25, 0.5, 0.75, 1}

// Histogram is a fixed-bucket histogram with cumulative bucket semantics
// matching the Prometheus text exposition: bucket i counts observations
// ≤ Bounds[i], and an implicit +Inf bucket counts everything. It is safe
// for concurrent use and takes no lock: Observe is three atomic updates,
// and ObserveN of a repeated value or Merge of a whole Tally one per
// series, so the paths it counts (a tenant's commands, the request
// middleware) never wait for a scrape or for each other.
//
// Update order is the consistency protocol. Observe (Merge) writes the
// widest series first — count, which is the +Inf bucket — and then the
// slot of the narrowest finite bucket that holds each value; Snapshot
// reads the other way, slots ascending and count last. Every value only
// grows, so whatever a reader sees in the slots was counted before it
// reads count: the cumulative buckets it builds are non-decreasing and
// never exceed Count, even with writers mid-update. Sum is not ordered
// against them; it may lead or trail Count by the observations in flight.
type Histogram struct {
	bounds []float64
	count  atomic.Uint64
	sum    atomic.Uint64   // float64 bits, CAS-updated
	slots  []atomic.Uint64 // slots[i] counts bounds[i-1] < v ≤ bounds[i]
}

// NewHistogram creates a histogram over the given bucket upper bounds,
// which must be strictly increasing. The bounds slice is not copied; do
// not mutate it after the call.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %g ≤ %g", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{bounds: bounds, slots: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records the value v n times, with one update of each series:
// counts and buckets are exactly those of n Observe calls, and the sum
// gains v·n, which may differ from n float additions in the last bit.
func (h *Histogram) ObserveN(v float64, n uint64) {
	h.count.Add(n)
	h.addSum(v * float64(n))
	if i := slotOf(h.bounds, v); i < len(h.slots) {
		h.slots[i].Add(n)
	}
}

// Merge adds everything t tallied, as if each value had been observed,
// with one update of each series instead of three per value. It keeps the
// Observe order — count first, then the slots — so a concurrent Snapshot
// stays a valid cumulative histogram. t must be over h's bounds. Counts
// and buckets are exactly those of the Observe calls; the sum is too
// whenever its float additions are exact (the tally adds its own values
// first), as they are for lags in quanta on a power-of-two grid.
func (h *Histogram) Merge(t *Tally) {
	if len(t.slots) != len(h.slots) {
		panic(fmt.Sprintf("obs: merging a tally of %d buckets into a histogram of %d", len(t.slots), len(h.slots)))
	}
	h.count.Add(t.count)
	h.addSum(t.sum)
	for i, n := range t.slots {
		if n != 0 {
			h.slots[i].Add(n)
		}
	}
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// slotOf returns the index of the narrowest bound ≥ v, len(bounds) when v
// is above every bound (the +Inf bucket only).
func slotOf(bounds []float64, v float64) int {
	for i, ub := range bounds {
		if v <= ub {
			return i
		}
	}
	return len(bounds)
}

// Tally counts observations over a histogram's bounds for one goroutine,
// with no atomics: a writer that observes many values per unit of work (a
// tenant, the decisions of one command) tallies them and merges the tally
// into its shared histograms once per unit (Histogram.Merge).
type Tally struct {
	bounds []float64
	count  uint64
	sum    float64
	slots  []uint64 // as Histogram's
}

// NewTally creates an empty tally over bounds, which a histogram it is
// merged into must share.
func NewTally(bounds []float64) *Tally {
	return &Tally{bounds: bounds, slots: make([]uint64, len(bounds))}
}

// Observe tallies one value.
func (t *Tally) Observe(v float64) {
	t.count++
	t.sum += v
	if i := slotOf(t.bounds, v); i < len(t.slots) {
		t.slots[i]++
	}
}

// Reset empties the tally.
func (t *Tally) Reset() {
	t.count, t.sum = 0, 0
	clear(t.slots)
}

// Snapshot is a point-in-time copy of a histogram's state. Buckets are
// cumulative and parallel to Bounds; Count is the +Inf bucket.
type Snapshot struct {
	Bounds  []float64
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// Snapshot returns a copy of the histogram that is a valid cumulative
// histogram whatever writers are doing (see Histogram).
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Bounds: h.bounds, Buckets: make([]uint64, len(h.slots))}
	cum := uint64(0)
	for i := range h.slots {
		cum += h.slots[i].Load()
		s.Buckets[i] = cum
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) from bucket counts by
// linear interpolation inside the bucket that contains the target rank,
// the same estimate Prometheus's histogram_quantile computes.
//
// Error bound: an observation is only known to lie within its bucket, so
// the estimate is off by at most the width of that bucket (for the first
// bucket, its upper bound; the lower edge is taken as 0 for non-negative
// data). If the rank lands in the +Inf bucket the estimate clamps to the
// last finite bound — quantiles beyond the instrumented range are
// reported as "at least the largest bound", never extrapolated. The
// histogram unit tests assert exactly these bounds.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	lower := 0.0 // lower edge of bucket i is Bounds[i-1] (0 for the first)
	prev := uint64(0)
	for i, ub := range s.Bounds {
		c := s.Buckets[i]
		if rank <= float64(c) && c > prev {
			// Interpolate within (lower, ub] by the rank's position among
			// this bucket's own observations.
			frac := (rank - float64(prev)) / float64(c-prev)
			if frac < 0 {
				frac = 0
			}
			return lower + (ub-lower)*frac
		}
		lower = ub
		prev = c
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}
