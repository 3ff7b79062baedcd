package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHistogramExactBuckets feeds a fully known distribution and asserts
// the exact cumulative count of every bucket — no tolerances. The values
// are chosen to hit bucket edges (an observation equal to a bound belongs
// to that bound's bucket) and the +Inf overflow.
func TestHistogramExactBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	// 3 values ≤ 1 (incl. the exact edge), 2 in (1,10], 1 in (10,100],
	// 2 beyond every bound.
	for _, v := range []float64{0, 0.5, 1, 1.0001, 10, 99, 101, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got, want := s.Buckets[0], uint64(3); got != want {
		t.Errorf("bucket le=1: got %d, want %d", got, want)
	}
	if got, want := s.Buckets[1], uint64(5); got != want {
		t.Errorf("bucket le=10: got %d, want %d", got, want)
	}
	if got, want := s.Buckets[2], uint64(6); got != want {
		t.Errorf("bucket le=100: got %d, want %d", got, want)
	}
	if s.Count != 8 {
		t.Errorf("count: got %d, want 8", s.Count)
	}
	wantSum := 0.0 + 0.5 + 1 + 1.0001 + 10 + 99 + 101 + 1e9
	if s.Sum != wantSum {
		t.Errorf("sum: got %g, want %g", s.Sum, wantSum)
	}
}

// TestHistogramFakeClockDurations pins the deterministic-measurement
// contract: a fake clock stepping 1ms per read makes a "start/stop"
// observation land in an exactly predictable bucket, every time.
func TestHistogramFakeClockDurations(t *testing.T) {
	clock := NewFake(time.Unix(1000, 0), time.Millisecond)
	h := NewHistogram(DefaultLatencyBuckets)
	for i := 0; i < 10; i++ {
		start := clock.Now()
		// Simulate work: the handler reads the clock once more.
		d := clock.Now().Sub(start)
		h.Observe(d.Seconds())
	}
	s := h.Snapshot()
	// 1ms lands in the 1024µs bucket (index 3) exactly: ≤ 256µs buckets
	// stay 0, everything from 1024µs up holds all 10.
	for i, want := range []uint64{0, 0, 0, 10, 10, 10, 10} {
		if s.Buckets[i] != want {
			t.Errorf("bucket le=%g: got %d, want %d", s.Bounds[i], s.Buckets[i], want)
		}
	}
	// The sum accumulates in observation order; reproduce the identical
	// float arithmetic rather than comparing against 10×0.001.
	wantSum := 0.0
	for i := 0; i < 10; i++ {
		wantSum += 0.001
	}
	if s.Sum != wantSum {
		t.Errorf("sum: got %g, want %g", s.Sum, wantSum)
	}
}

// TestQuantileKnownDistribution checks the interpolation estimate against
// a uniform distribution where the true quantiles are known, asserting
// the documented error bound: the estimate is off by at most the width of
// the bucket holding the target rank.
func TestQuantileKnownDistribution(t *testing.T) {
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := NewHistogram(bounds)
	// Uniform 1..100: true q-quantile of the empirical distribution ≈ 100q.
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot()
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Quantile(q)
		truth := 100 * q
		const bucketWidth = 10.0
		if math.Abs(got-truth) > bucketWidth {
			t.Errorf("q=%g: estimate %g vs truth %g exceeds bucket-width bound %g",
				q, got, truth, bucketWidth)
		}
	}
	// With uniform data and aligned buckets the interpolation is exact.
	if got := s.Quantile(0.5); got != 50 {
		t.Errorf("median of uniform 1..100: got %g, want exactly 50", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("q=1: got %g, want 100", got)
	}
}

// TestQuantileEdgeCases covers empty histograms, single buckets, and
// ranks landing in the +Inf bucket (clamped, never extrapolated).
func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if !math.IsNaN(h.Snapshot().Quantile(0.5)) {
		t.Error("empty histogram should estimate NaN")
	}
	h.Observe(5) // beyond every bound
	if got := h.Snapshot().Quantile(0.5); got != 2 {
		t.Errorf("rank in +Inf bucket should clamp to last bound 2, got %g", got)
	}
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(0.5)
	h2.Observe(1.5)
	// q=0 clamps to the lower edge of the first populated bucket.
	if got := h2.Snapshot().Quantile(0); got != 0 {
		t.Errorf("q=0: got %g, want 0", got)
	}
	if got := h2.Snapshot().Quantile(1); got != 2 {
		t.Errorf("q=1: got %g, want 2", got)
	}
}

// TestQuantaBucketsZeroBound: the 0 bound makes "dispatched with zero
// lag" an exact bucket, so the common case is distinguishable from
// "small but nonzero tardiness".
func TestQuantaBucketsZeroBound(t *testing.T) {
	h := NewHistogram(QuantaBuckets)
	h.Observe(0)
	h.Observe(0)
	h.Observe(0.5)
	h.Observe(1)
	s := h.Snapshot()
	if s.Buckets[0] != 2 {
		t.Errorf("le=0 bucket: got %d, want 2", s.Buckets[0])
	}
	if s.Buckets[2] != 3 { // le=0.5
		t.Errorf("le=0.5 bucket: got %d, want 3", s.Buckets[2])
	}
	if s.Buckets[4] != 4 { // le=1: Theorem 3 says everything lands here
		t.Errorf("le=1 bucket: got %d, want 4", s.Buckets[4])
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds should panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestTallyMergeEqualsObserve: tallying values and merging the tallies
// leaves the histogram Observe of the same values would — buckets, count
// and, since every value is a multiple of 1/4, the sum bit for bit. The
// values are 0, every bound exactly and values above the last bound, in
// random runs merged at random points, into one histogram twice over.
func TestTallyMergeEqualsObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := append([]float64{0, 1.25, 1.5, 2, 7.75}, QuantaBuckets...)
	for trial := 0; trial < 200; trial++ {
		want, got := NewHistogram(QuantaBuckets), NewHistogram(QuantaBuckets)
		tally := NewTally(QuantaBuckets)
		for n := rng.Intn(64); n > 0; n-- {
			v := values[rng.Intn(len(values))]
			want.Observe(v)
			tally.Observe(v)
			if rng.Intn(8) == 0 {
				got.Merge(tally)
				tally.Reset()
			}
		}
		got.Merge(tally)
		if w, g := want.Snapshot(), got.Snapshot(); !reflect.DeepEqual(w, g) {
			t.Fatalf("trial %d: merged %+v, observed %+v", trial, g, w)
		}
	}
}

// TestObserveNEqualsObserve: recording a value n times at once leaves the
// histogram n Observe calls would — buckets, count and, since every value
// is a multiple of 1/4 and n small, the sum bit for bit — for 0, every
// bound exactly and values above the last bound.
func TestObserveNEqualsObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := append([]float64{0, 1.25, 1.5, 2, 7.75}, QuantaBuckets...)
	want, got := NewHistogram(QuantaBuckets), NewHistogram(QuantaBuckets)
	for trial := 0; trial < 200; trial++ {
		v, n := values[rng.Intn(len(values))], rng.Intn(100)
		for i := 0; i < n; i++ {
			want.Observe(v)
		}
		got.ObserveN(v, uint64(n))
		if w, g := want.Snapshot(), got.Snapshot(); !reflect.DeepEqual(w, g) {
			t.Fatalf("trial %d, %g × %d: ObserveN left %+v, Observe %+v", trial, v, n, g, w)
		}
	}
}

// TestMergeRejectsOtherBounds: a tally is only merged into a histogram over
// its own bounds.
func TestMergeRejectsOtherBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging a tally over other bounds should panic")
		}
	}()
	NewHistogram([]float64{1, 2}).Merge(NewTally(QuantaBuckets))
}

// TestHistogramConcurrentSnapshots is the torn-read property as a test:
// while writers observe or merge tallies, every Snapshot a reader takes is
// a valid cumulative histogram — each bucket ≤ the next ≤ Count — and once
// the writers are done the counts are exact.
func TestHistogramConcurrentSnapshots(t *testing.T) {
	const writers, perWriter = 4, 5000
	bounds := []float64{1, 2, 3, 4}
	h := NewHistogram(bounds)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w == 0 {
				// The merging writer: the same values, a tally of 16 at a time.
				tally := NewTally(bounds)
				for i := 0; i < perWriter; i++ {
					tally.Observe(float64(i%5) + 0.5)
					if i%16 == 15 || i == perWriter-1 {
						h.Merge(tally)
						tally.Reset()
					}
				}
				return
			}
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%5) + 0.5) // 0.5 … 4.5: every bucket, and +Inf
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false // one more snapshot, of the final state
		default:
		}
		s := h.Snapshot()
		prev := uint64(0)
		for i, c := range s.Buckets {
			if c < prev {
				t.Fatalf("torn snapshot: bucket le=%g holds %d, the one below it %d", bounds[i], c, prev)
			}
			prev = c
		}
		if prev > s.Count {
			t.Fatalf("torn snapshot: widest bucket holds %d, count %d", prev, s.Count)
		}
	}
	s := h.Snapshot()
	for i, c := range s.Buckets {
		if want := uint64((i + 1) * writers * perWriter / 5); c != want {
			t.Errorf("bucket le=%g: got %d, want %d", bounds[i], c, want)
		}
	}
	if s.Count != writers*perWriter {
		t.Errorf("count: got %d, want %d", s.Count, writers*perWriter)
	}
	if want := 2.5 * writers * perWriter; s.Sum != want {
		t.Errorf("sum: got %g, want %g", s.Sum, want)
	}
}
