package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// RetryPolicy makes a Client retry requests that are safe to resend. Two
// classes are retried:
//
//   - Idempotent requests (every GET, plus POSTs carrying a
//     client-supplied idempotency key — SubmitJobKeyed) on transport
//     errors and 5xx replies: resending cannot double-apply, because the
//     server dedupes keyed submits and GETs change nothing.
//   - 429 backpressure on any retry-enabled request: the server refused
//     the request *before* any state change (a full submit ring), so a
//     resend is always safe. 429s honor the reply's Retry-After, never
//     count against MaxAttempts (backpressure is load, not failure), and
//     are bounded by the caller's context instead.
//
// Non-idempotent mutations are never retried on ambiguous failures —
// resending one could double-apply it. A zero policy disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values ≤ 1 disable retries.
	MaxAttempts int
	// OnRetry, if set, is called with the attempt's error before each
	// retry sleep — load generators use it to count 429 backpressure
	// without losing it to the retry loop.
	OnRetry func(err error)
}

// The retry backoff: baseDelay before the first retry, doubling with each
// further one up to maxDelay.
const (
	baseDelay = 10 * time.Millisecond
	maxDelay  = time.Second
)

// WithRetry returns a copy of the client that retries under the given
// policy. The original client is unchanged, and both views send through
// the same pooled connections.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cp := *c
	cp.retry = p
	return &cp
}

// retryClass sorts an attempt's failure: backpressure (429 — always
// resendable, not counted as a failure), transient (transport errors and
// 5xx — resendable when the request is idempotent), or neither. The
// caller's own cancellation is never retried.
func retryClass(err error) (retry, backpressure bool) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusTooManyRequests {
			return true, true
		}
		return ae.Status >= 500, false
	}
	return true, false // transport-level failure
}

var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// backoff sleeps before retry attempt i (0-based), honouring ctx: the
// delay is min(maxDelay, baseDelay·2^i), half fixed and half jittered so
// synchronized clients spread out — raised to the server's Retry-After
// when the failed attempt carried one. Returns ctx.Err() if the deadline
// lands mid-sleep.
func backoff(ctx context.Context, i int, last error) error {
	d := baseDelay
	for ; i > 0 && d < maxDelay; i-- {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	jitterMu.Lock()
	d = d/2 + time.Duration(jitterRng.Int63n(int64(d/2)+1))
	jitterMu.Unlock()
	var ae *APIError
	if errors.As(last, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doRetry runs one request through the retry loop. GETs are always
// idempotent; mutating requests pass idempotent=true only when a resend
// provably cannot double-apply (keyed submits).
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	if c.retry.MaxAttempts <= 1 {
		return c.doOnce(ctx, method, path, in, out)
	}
	idempotent = idempotent || method == http.MethodGet
	failures := 0 // transient failures; backpressure never increments
	for i := 0; ; i++ {
		err := c.doOnce(ctx, method, path, in, out)
		if err == nil {
			return nil
		}
		retry, backpressure := retryClass(err)
		switch {
		case backpressure:
			// 429 is retried even on plain mutations: the server refused
			// before any state change.
		case !retry || !idempotent:
			return err
		default:
			failures++
			if failures >= c.retry.MaxAttempts {
				return err
			}
		}
		if c.retry.OnRetry != nil {
			c.retry.OnRetry(err)
		}
		if serr := backoff(ctx, i, err); serr != nil {
			return serr
		}
	}
}
