// Package backoff is the one shared retry-delay policy for every HTTP
// client in the system. relayapi (relay data APIs) and fleet (coordinator →
// agent RPCs) both wait out transient failures with the same capped
// exponential backoff, scaled by a deterministic jitter factor in [0.5, 1)
// drawn from a seeded stream, and never shorter than a server's Retry-After
// hint — so a shed server's hint is always honoured and replayed runs wait
// identical amounts.
package backoff

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/rng"
)

// ParseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either a non-negative delta-seconds integer or an HTTP-date.
// Dates are resolved against now; a date in the past, a negative delta, or
// garbage all parse to 0 (no hint), so a malformed server header can never
// stall a client. A delta too large for a time.Duration saturates to the
// largest one, as RFC 9111 §1.2.2 does for delta-seconds that overflow, so
// the result is never negative and grows with the delta.
func ParseRetryAfter(value string, now time.Time) time.Duration {
	value = strings.TrimSpace(value)
	if value == "" {
		return 0
	}
	// On overflow ParseInt returns ErrRange with the value clamped to the
	// int64 range, which the bounds below then clamp further.
	if secs, err := strconv.ParseInt(value, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs <= 0:
			return 0
		case secs > maxDeltaSeconds:
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	// http.ParseTime tries the three RFC 9110 date layouts (IMF-fixdate,
	// RFC 850, asctime).
	when, err := http.ParseTime(value)
	if err != nil {
		return 0
	}
	d := when.Sub(now)
	if d <= 0 {
		return 0
	}
	return d
}

// maxDeltaSeconds is the largest delta-seconds a time.Duration holds.
const maxDeltaSeconds = math.MaxInt64 / int64(time.Second)

// Policy is a capped exponential backoff: the first retry waits Base, each
// further retry doubles it, clamped to Max (overflow also clamps to Max).
type Policy struct {
	// Base is the first backoff; each retry doubles it up to Max.
	Base time.Duration
	// Max clamps the exponential growth.
	Max time.Duration
}

// Jitter is a deterministic jitter stream: a mutex-guarded seeded RNG that
// scales each delay by a factor in [0.5, 1). One Jitter per logical client
// keeps delay sequences reproducible regardless of which goroutine retries.
type Jitter struct {
	mu sync.Mutex
	r  *rng.RNG
}

// NewJitter derives a jitter stream from a root seed and a stream name
// (conventionally "<package>/retry/<client name>").
func NewJitter(seed uint64, stream string) *Jitter {
	return &Jitter{r: rng.New(seed).Fork(stream)}
}

// Factor draws the next jitter factor in [0.5, 1).
func (j *Jitter) Factor() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return 0.5 + 0.5*j.r.Float64()
}

// Delay computes the wait before retry number attempt (1-based): capped
// exponential backoff scaled by the next jitter factor, never shorter than
// the server's Retry-After hint. A nil jitter skips the scaling (full
// deterministic delay), which is what tests that assert exact waits want.
func (p Policy) Delay(attempt int, retryAfter time.Duration, j *Jitter) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base << uint(attempt-1)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	if j != nil {
		d = time.Duration(float64(d) * j.Factor())
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}
