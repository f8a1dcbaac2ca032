package faults

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/rng"
)

// Window is a half-open [From, To) outage span.
type Window struct{ From, To time.Time }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.From) && t.Before(w.To)
}

// Config declares the fault mix for one relay. Probabilities are drawn
// independently per request; zero values inject nothing.
type Config struct {
	// DropProb is the chance the connection is severed before any response.
	DropProb float64
	// DelayProb is the chance the response is held for Delay.
	DelayProb float64
	Delay     time.Duration
	// ErrorProb is the chance of a 503 instead of a real response.
	ErrorProb float64
	// RateLimitProb is the chance of a 429 carrying Retry-After.
	RateLimitProb float64
	RetryAfter    time.Duration
	// TruncateProb is the chance the response body is cut in half
	// mid-stream.
	TruncateProb float64
	// DuplicateProb is the chance the request is delivered twice: the
	// round-trip is performed, its response discarded, and the request
	// re-sent — the at-least-once delivery failure that flushes out
	// non-idempotent endpoints. Drawn only when configured (like the
	// server-plane modes), so legacy configs keep their exact streams.
	// Transport-only; Middleware ignores it (a server cannot re-deliver).
	DuplicateProb float64

	// The two WAN modes below model long flaky transfers between real
	// hosts. Like the server-plane modes they are drawn only when
	// configured, so legacy configs keep their exact streams. They are
	// Transport-only: both model damage on the client's side of the wire.

	// CutProb is the chance the connection is severed mid-transfer: the
	// response streams normally up to a seeded byte offset drawn in
	// [1, CutAfterBytes] (default 64 KiB) and then dies with a read error —
	// the failure ranged resume exists for. A cut link differs from
	// TruncateProb in that the client observes an explicit error partway
	// through a known-length body, not a silently short one.
	CutProb       float64
	CutAfterBytes int64
	// ThrottleProb is the chance the response body is drip-fed at
	// ThrottleChunk bytes (default 1 KiB) per read with ThrottleDelay
	// between chunks — a congested WAN path that makes big single-shot
	// transfers time out where chunked ranged transfers survive.
	ThrottleProb  float64
	ThrottleChunk int
	ThrottleDelay time.Duration

	// The three server-plane modes below are drawn only when at least one
	// of them is configured, so legacy configs keep their exact historical
	// draw sequences (and their golden outputs). They only take effect in
	// Middleware; Transport ignores them.

	// SlowBodyProb is the chance the request body is drip-fed to the
	// handler — a seeded slow-loris client. The handler sees SlowBodyChunk
	// bytes (default 1) per read with SlowBodyDelay between chunks, so a
	// body-reading endpoint without its own deadline stalls indefinitely.
	SlowBodyProb  float64
	SlowBodyChunk int
	SlowBodyDelay time.Duration
	// PartialWriteProb is the chance only the first half of the response
	// body is written, with framing that terminates cleanly: no transport
	// error, just silently short payload bytes — exactly the damage only a
	// content checksum (the artifact manifest) can catch.
	PartialWriteProb float64
	// ResetProb is the chance the connection is torn down after half the
	// response body is on the wire; the client observes a mid-response
	// reset/EOF rather than a status.
	ResetProb float64

	// Outages are hard downtime windows: every request inside one is
	// dropped, regardless of the probabilistic faults.
	Outages []Window
}

// hasServerModes reports whether any Middleware-only fault is configured.
func (c Config) hasServerModes() bool {
	return c.SlowBodyProb > 0 || c.PartialWriteProb > 0 || c.ResetProb > 0
}

// Counters tallies injected faults for one relay.
type Counters struct {
	Requests      int
	Drops         int
	Delays        int
	Errors        int
	RateLimits    int
	Truncates     int
	Duplicates    int
	OutageHits    int
	SlowBodies    int
	PartialWrites int
	Resets        int
	Cuts          int
	Throttles     int
}

// Injected sums every injected fault.
func (c Counters) Injected() int {
	return c.Drops + c.Delays + c.Errors + c.RateLimits + c.Truncates + c.Duplicates +
		c.OutageHits + c.SlowBodies + c.PartialWrites + c.Resets + c.Cuts + c.Throttles
}

// Stats aggregates fault counters per relay; safe for concurrent use.
type Stats struct {
	mu     sync.Mutex
	counts map[string]*Counters
}

func (s *Stats) bump(relay string, f func(*Counters)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = map[string]*Counters{}
	}
	c := s.counts[relay]
	if c == nil {
		c = &Counters{}
		s.counts[relay] = c
	}
	f(c)
}

// For returns a copy of the counters for one relay.
func (s *Stats) For(relay string) Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.counts[relay]; ok {
		return *c
	}
	return Counters{}
}

// Action is one request's fault decision. The zero Action passes the
// request through untouched.
type Action struct {
	Drop       bool
	Delay      time.Duration
	Status     int // 0 = no synthetic status; otherwise 503 or 429
	RetryAfter time.Duration
	Truncate   bool
	Duplicate  bool

	// Transport-only WAN modes (Middleware never sets them).
	CutAfter      int64 // > 0: sever the response body after this many bytes
	Throttle      bool
	ThrottleChunk int
	ThrottleDelay time.Duration

	// Middleware-only modes (Transport never sets them).
	SlowBody      bool
	SlowBodyChunk int
	SlowBodyDelay time.Duration
	PartialWrite  bool
	Reset         bool
}

// Injector makes deterministic per-relay fault decisions. Each relay gets
// its own forked rng stream, so one relay's request count never perturbs
// another's draws; within a relay, decisions depend only on the request
// ordinal. Concurrent crawls stay deterministic as long as each relay's
// requests are issued sequentially (one crawler goroutine per relay).
type Injector struct {
	mu      sync.Mutex
	root    *rng.RNG
	streams map[string]*rng.RNG
	configs map[string]Config
	stats   Stats
}

// NewInjector seeds an injector.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		root:    rng.New(seed),
		streams: map[string]*rng.RNG{},
		configs: map[string]Config{},
	}
}

// SetConfig declares the fault mix for a relay. Relays without a config
// pass through untouched.
func (inj *Injector) SetConfig(relay string, cfg Config) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.configs[relay] = cfg
}

// Stats exposes the injection counters.
func (inj *Injector) Stats() *Stats { return &inj.stats }

// Decide draws the fault action for one request against relay at the given
// time. Every configured fault kind consumes exactly one draw per request,
// so the decision sequence is a pure function of (seed, relay, ordinal).
func (inj *Injector) Decide(relay string, at time.Time) Action {
	inj.mu.Lock()
	cfg, configured := inj.configs[relay]
	var stream *rng.RNG
	if configured {
		stream = inj.streams[relay]
		if stream == nil {
			stream = inj.root.Fork("faults/" + relay)
			inj.streams[relay] = stream
		}
	}
	inj.mu.Unlock()

	inj.stats.bump(relay, func(c *Counters) { c.Requests++ })
	if !configured {
		return Action{}
	}

	for _, w := range cfg.Outages {
		if w.Contains(at) {
			inj.stats.bump(relay, func(c *Counters) { c.OutageHits++ })
			return Action{Drop: true}
		}
	}

	// Fixed draw order, one draw per kind, so the stream advances
	// identically whatever the outcome. The server-plane kinds draw only
	// when configured, which keeps every pre-existing config's stream —
	// and therefore its goldens — byte-identical.
	inj.mu.Lock()
	drop := stream.Bool(cfg.DropProb)
	delay := stream.Bool(cfg.DelayProb)
	fail := stream.Bool(cfg.ErrorProb)
	limit := stream.Bool(cfg.RateLimitProb)
	trunc := stream.Bool(cfg.TruncateProb)
	var slow, partial, reset bool
	if cfg.hasServerModes() {
		slow = stream.Bool(cfg.SlowBodyProb)
		partial = stream.Bool(cfg.PartialWriteProb)
		reset = stream.Bool(cfg.ResetProb)
	}
	var dup bool
	if cfg.DuplicateProb > 0 {
		dup = stream.Bool(cfg.DuplicateProb)
	}
	var cutAt int64
	if cfg.CutProb > 0 {
		cut := stream.Bool(cfg.CutProb)
		maxOff := cfg.CutAfterBytes
		if maxOff <= 0 {
			maxOff = 64 << 10
		}
		// The offset is drawn every request (not just when the cut fires),
		// so the stream advances identically whatever the outcome.
		off := int64(stream.Intn(int(maxOff))) + 1
		if cut {
			cutAt = off
		}
	}
	var throttle bool
	if cfg.ThrottleProb > 0 {
		throttle = stream.Bool(cfg.ThrottleProb)
	}
	inj.mu.Unlock()

	switch {
	case drop:
		inj.stats.bump(relay, func(c *Counters) { c.Drops++ })
		return Action{Drop: true}
	case fail:
		inj.stats.bump(relay, func(c *Counters) { c.Errors++ })
		return Action{Status: http.StatusServiceUnavailable}
	case limit:
		inj.stats.bump(relay, func(c *Counters) { c.RateLimits++ })
		return Action{Status: http.StatusTooManyRequests, RetryAfter: cfg.RetryAfter}
	}
	var act Action
	if delay {
		inj.stats.bump(relay, func(c *Counters) { c.Delays++ })
		act.Delay = cfg.Delay
	}
	if trunc {
		inj.stats.bump(relay, func(c *Counters) { c.Truncates++ })
		act.Truncate = true
	}
	if dup {
		inj.stats.bump(relay, func(c *Counters) { c.Duplicates++ })
		act.Duplicate = true
	}
	// A full truncation subsumes a cut: only one of the two mangles the
	// body, and truncation (read-all-then-halve) would defeat the cut's
	// streaming offset anyway.
	if cutAt > 0 && !act.Truncate {
		inj.stats.bump(relay, func(c *Counters) { c.Cuts++ })
		act.CutAfter = cutAt
	}
	if throttle {
		inj.stats.bump(relay, func(c *Counters) { c.Throttles++ })
		act.Throttle = true
		act.ThrottleChunk = cfg.ThrottleChunk
		if act.ThrottleChunk <= 0 {
			act.ThrottleChunk = 1 << 10
		}
		act.ThrottleDelay = cfg.ThrottleDelay
	}
	if slow {
		inj.stats.bump(relay, func(c *Counters) { c.SlowBodies++ })
		act.SlowBody = true
		act.SlowBodyChunk = cfg.SlowBodyChunk
		if act.SlowBodyChunk <= 0 {
			act.SlowBodyChunk = 1
		}
		act.SlowBodyDelay = cfg.SlowBodyDelay
	}
	// Reset wins over partial-write when both fire: a torn connection
	// subsumes a short body.
	switch {
	case reset:
		inj.stats.bump(relay, func(c *Counters) { c.Resets++ })
		act.Reset = true
	case partial:
		inj.stats.bump(relay, func(c *Counters) { c.PartialWrites++ })
		act.PartialWrite = true
	}
	return act
}

// Transport wraps an http.RoundTripper with fault injection on the client
// side. Dropped requests never reach Base; synthetic statuses are answered
// locally; truncation halves the real response body.
type Transport struct {
	Base  http.RoundTripper
	Inj   *Injector
	Relay string
	// Clock supplies now for outage windows; defaults to time.Now.
	Clock func() time.Time
	// Sleep implements injected delays; defaults to time.Sleep.
	Sleep func(time.Duration)
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	now := time.Now
	if t.Clock != nil {
		now = t.Clock
	}
	act := t.Inj.Decide(t.Relay, now())
	if act.Drop {
		return nil, fmt.Errorf("faults: %s: connection dropped", t.Relay)
	}
	if act.Delay > 0 {
		sleep := time.Sleep
		if t.Sleep != nil {
			sleep = t.Sleep
		}
		sleep(act.Delay)
	}
	if act.Status != 0 {
		return syntheticResponse(req, act), nil
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if act.Duplicate {
		// At-least-once delivery: the request reaches the server twice and
		// the caller sees only the second response. Requests with a
		// non-replayable body cannot be duplicated and pass through.
		if redo, rerr := duplicateRequest(req); rerr == nil {
			first, ferr := base.RoundTrip(req)
			if ferr != nil {
				// The lone delivery failed; nothing left to duplicate.
				return first, ferr
			}
			_, _ = io.Copy(io.Discard, first.Body)
			first.Body.Close()
			req = redo
		}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if act.Truncate {
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			return nil, readErr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		return resp, nil
	}
	// WAN damage wraps the streaming body: a cut severs it at the seeded
	// offset, a throttle drips it. Both compose (a slow link can also die).
	if act.CutAfter > 0 {
		resp.Body = &cutReader{src: resp.Body, relay: t.Relay, left: act.CutAfter}
	}
	if act.Throttle {
		resp.Body = &dripReader{
			src:   resp.Body,
			chunk: act.ThrottleChunk,
			delay: act.ThrottleDelay,
			done:  req.Context().Done(),
		}
	}
	return resp, nil
}

// cutReader delivers the first left bytes of src, then fails the read —
// the client-side view of a connection severed mid-transfer.
type cutReader struct {
	src   io.ReadCloser
	relay string
	left  int64
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, fmt.Errorf("faults: %s: connection cut mid-transfer", c.relay)
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.src.Read(p)
	c.left -= int64(n)
	if err == io.EOF {
		// The body ended before the cut offset: the transfer completed.
		return n, err
	}
	if c.left <= 0 && err == nil {
		err = fmt.Errorf("faults: %s: connection cut mid-transfer", c.relay)
	}
	return n, err
}

func (c *cutReader) Close() error { return c.src.Close() }

// duplicateRequest clones req for a second delivery, replaying the body via
// GetBody. Bodyless requests clone trivially; a request whose body cannot be
// replayed returns an error and is not duplicated.
func duplicateRequest(req *http.Request) (*http.Request, error) {
	redo := req.Clone(req.Context())
	if req.Body == nil || req.Body == http.NoBody {
		return redo, nil
	}
	if req.GetBody == nil {
		return nil, fmt.Errorf("faults: %s request body is not replayable", req.Method)
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	redo.Body = body
	return redo, nil
}

func syntheticResponse(req *http.Request, act Action) *http.Response {
	header := http.Header{}
	if act.RetryAfter > 0 {
		header.Set("Retry-After", strconv.Itoa(int(act.RetryAfter/time.Second)))
	}
	return &http.Response{
		StatusCode: act.Status,
		Status:     http.StatusText(act.Status),
		Header:     header,
		Body:       io.NopCloser(bytes.NewReader(nil)),
		Request:    req,
	}
}

// Middleware wraps a relay's handler with server-side fault injection.
// Drops abort the connection (the client sees EOF); truncation declares the
// full Content-Length but writes only half the body, which the client
// observes as an unexpected EOF mid-decode. SlowBody drips the request body
// into the handler like a slow-loris client; PartialWrite delivers only the
// first half of the response with clean framing (detectable only by
// checksum); Reset tears the connection down after half the response.
func Middleware(next http.Handler, inj *Injector, relay string, clock func() time.Time) http.Handler {
	if clock == nil {
		clock = time.Now
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		act := inj.Decide(relay, clock())
		if act.Drop {
			panic(http.ErrAbortHandler)
		}
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if act.Status != 0 {
			if act.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int(act.RetryAfter/time.Second)))
			}
			http.Error(w, http.StatusText(act.Status), act.Status)
			return
		}
		if act.SlowBody && r.Body != nil {
			r.Body = &dripReader{
				src:   r.Body,
				chunk: act.SlowBodyChunk,
				delay: act.SlowBodyDelay,
				done:  r.Context().Done(),
			}
		}
		if !act.Truncate && !act.PartialWrite && !act.Reset {
			next.ServeHTTP(w, r)
			return
		}
		rec := &captureWriter{header: http.Header{}, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		for k, vs := range rec.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		half := rec.buf.Bytes()[:rec.buf.Len()/2]
		switch {
		case act.Truncate:
			// Promise the full length, deliver half: unexpected EOF.
			w.Header().Set("Content-Length", strconv.Itoa(rec.buf.Len()))
			w.WriteHeader(rec.code)
			_, _ = w.Write(half)
		case act.Reset:
			// Half the body on the wire, then a torn connection.
			w.WriteHeader(rec.code)
			_, _ = w.Write(half)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		default: // PartialWrite
			// Half the body with honest framing: the transfer ends
			// cleanly and only a content checksum can tell.
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.code)
			_, _ = w.Write(half)
		}
	})
}

// dripReader delivers the wrapped body chunk bytes at a time with a delay
// before each chunk, aborting early when the request context ends so an
// injected stall cannot outlive its request.
type dripReader struct {
	src   io.ReadCloser
	chunk int
	delay time.Duration
	done  <-chan struct{}
}

func (d *dripReader) Read(p []byte) (int, error) {
	if d.delay > 0 {
		select {
		case <-time.After(d.delay):
		case <-d.done:
			return 0, fmt.Errorf("faults: slow-loris drip aborted: request context done")
		}
	}
	if len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.src.Read(p)
}

func (d *dripReader) Close() error { return d.src.Close() }

// captureWriter buffers a handler's full response so Middleware can replay
// a truncated copy.
type captureWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(code int) { c.code = code }

func (c *captureWriter) Write(p []byte) (int, error) { return c.buf.Write(p) }
