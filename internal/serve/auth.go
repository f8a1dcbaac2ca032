package serve

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Request authentication for the agent plane and pbslabd's admin endpoints:
// a shared-secret HMAC over the request line, a per-request nonce, and a
// timestamp window. It defends against unauthorised callers and replayed
// requests on an untrusted network segment; it does NOT hide request or
// response bytes (that is TLS's job) and it does not authenticate
// responses — a man-in-the-middle can still tamper with response bodies,
// which is why artifact transfer keeps its own SHA-256 digest gate and why
// production deployments should layer TLS on top (see DESIGN.md §14).

// Auth header names. The error header distinguishes retryable rejections
// (replay/stale — the signature was valid, so the caller holds the right
// secret and should simply re-sign with a fresh nonce and timestamp) from
// terminal ones (missing/denied — wrong or absent secret, retrying is
// pointless and the caller should be treated as misconfigured).
const (
	AuthSigHeader   = "X-Pbslab-Signature"
	AuthTSHeader    = "X-Pbslab-Timestamp"
	AuthNonceHeader = "X-Pbslab-Nonce"
	AuthErrorHeader = "X-Pbslab-Auth-Error"

	// AuthErrorHeader values.
	AuthErrMissing = "missing" // no auth headers at all
	AuthErrDenied  = "denied"  // signature mismatch (wrong secret or tampered request)
	AuthErrStale   = "stale"   // timestamp outside the freshness window
	AuthErrReplay  = "replay"  // nonce already seen inside the window
)

// AuthRetryable reports whether a 401's error marker means the caller holds
// the right secret and re-signing with a fresh nonce/timestamp can succeed.
func AuthRetryable(marker string) bool {
	return marker == AuthErrStale || marker == AuthErrReplay
}

// Authenticator signs outgoing requests and verifies incoming ones with a
// shared secret. The canonical string covers method, path, query, a unix
// timestamp, a random nonce, and the SHA-256 of the body, so no part of a
// request an attacker could usefully rewrite is left uncovered. Verify-side
// state (the nonce replay cache) is internal; one Authenticator serves any
// number of handlers and clients.
type Authenticator struct {
	secret []byte
	window time.Duration
	now    func() time.Time

	mu   sync.Mutex
	seen map[string]time.Time // nonce -> expiry
}

// DefaultAuthWindow is an authenticator's freshness window: timestamps
// older or newer than this are rejected as stale, and nonces are
// remembered for this long.
const DefaultAuthWindow = 2 * time.Minute

// NewAuthenticator builds an authenticator for secret with the
// DefaultAuthWindow. An empty secret is rejected at load time by
// LoadSecretFile; passing one here yields an authenticator that denies
// everything, which is the safe failure mode.
func NewAuthenticator(secret []byte) *Authenticator {
	return &Authenticator{
		secret: append([]byte(nil), secret...),
		window: DefaultAuthWindow,
		now:    time.Now,
		seen:   make(map[string]time.Time),
	}
}

// LoadSecretFile reads a shared secret from path, trimming surrounding
// whitespace (so `openssl rand -hex 32 > secret` round-trips). An empty
// file is an error: silently running unauthenticated is the one failure
// mode this package exists to prevent.
func LoadSecretFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth: read secret: %w", err)
	}
	secret := bytes.TrimSpace(raw)
	if len(secret) == 0 {
		return nil, fmt.Errorf("auth: secret file %s is empty", path)
	}
	return secret, nil
}

// canonical builds the signed string. The body digest is hex so the string
// stays printable end to end (easier to debug a signature mismatch).
func canonical(method, path, query, ts, nonce string, bodySum [sha256.Size]byte) []byte {
	var b bytes.Buffer
	b.WriteString(method)
	b.WriteByte('\n')
	b.WriteString(path)
	b.WriteByte('\n')
	b.WriteString(query)
	b.WriteByte('\n')
	b.WriteString(ts)
	b.WriteByte('\n')
	b.WriteString(nonce)
	b.WriteByte('\n')
	b.WriteString(hex.EncodeToString(bodySum[:]))
	return b.Bytes()
}

func (a *Authenticator) mac(method, path, query, ts, nonce string, bodySum [sha256.Size]byte) string {
	m := hmac.New(sha256.New, a.secret)
	m.Write(canonical(method, path, query, ts, nonce, bodySum))
	return hex.EncodeToString(m.Sum(nil))
}

// Sign stamps r with a fresh timestamp, a random nonce, and the HMAC over
// the canonical string. body must be the exact bytes the request will send
// (nil for bodyless requests). Each call draws a new nonce, so re-signing
// the same logical request after a replay rejection succeeds.
func (a *Authenticator) Sign(r *http.Request, body []byte) error {
	var nb [16]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return fmt.Errorf("auth: nonce: %w", err)
	}
	nonce := hex.EncodeToString(nb[:])
	ts := strconv.FormatInt(a.now().Unix(), 10)
	sig := a.mac(r.Method, r.URL.Path, r.URL.RawQuery, ts, nonce, sha256.Sum256(body))
	r.Header.Set(AuthTSHeader, ts)
	r.Header.Set(AuthNonceHeader, nonce)
	r.Header.Set(AuthSigHeader, sig)
	return nil
}

// verifyErr carries the rejection marker for the response header.
type verifyErr struct{ marker string }

func (e *verifyErr) Error() string { return "auth: " + e.marker }

// verify checks headers + body digest against the canonical signature,
// enforces the freshness window, and records the nonce. Order matters: the
// signature is checked before the nonce is consulted or recorded, so an
// attacker without the secret can neither poison the replay cache nor
// probe which nonces have been used.
func (a *Authenticator) verify(method, path, query string, h http.Header, bodySum [sha256.Size]byte) error {
	ts := h.Get(AuthTSHeader)
	nonce := h.Get(AuthNonceHeader)
	sig := h.Get(AuthSigHeader)
	if ts == "" && nonce == "" && sig == "" {
		return &verifyErr{AuthErrMissing}
	}
	want := a.mac(method, path, query, ts, nonce, bodySum)
	if !hmac.Equal([]byte(want), []byte(sig)) {
		return &verifyErr{AuthErrDenied}
	}
	sec, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		return &verifyErr{AuthErrDenied}
	}
	now := a.now()
	at := time.Unix(sec, 0)
	if at.Before(now.Add(-a.window)) || at.After(now.Add(a.window)) {
		return &verifyErr{AuthErrStale}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	// Opportunistic prune: the map never outgrows one window of traffic.
	for n, exp := range a.seen {
		if now.After(exp) {
			delete(a.seen, n)
		}
	}
	if _, dup := a.seen[nonce]; dup {
		return &verifyErr{AuthErrReplay}
	}
	a.seen[nonce] = now.Add(a.window)
	return nil
}

// Middleware wraps next so only authenticated requests reach it. The body
// (at most maxBodyBytes; a longer one answers 413) is read once to digest it
// and handed to next as an in-memory reader — handlers downstream see a
// normal request. Rejections answer 401 with AuthErrorHeader naming the
// cause; retryable causes invite the caller to re-sign, terminal ones tell
// the coordinator to stop dispatching to a misconfigured peer.
func (a *Authenticator) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Body != nil && r.Body != http.NoBody {
			var err error
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
			if err != nil {
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
						"error": "Request Entity Too Large",
					})
					return
				}
				writeJSON(w, http.StatusBadRequest, map[string]any{
					"error": "Bad Request", "reason": "unreadable body",
				})
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if err := a.verify(r.Method, r.URL.Path, r.URL.RawQuery, r.Header, sha256.Sum256(body)); err != nil {
			marker := AuthErrDenied
			var ve *verifyErr
			if errors.As(err, &ve) {
				marker = ve.marker
			}
			w.Header().Set(AuthErrorHeader, marker)
			writeJSON(w, http.StatusUnauthorized, map[string]any{
				"error": "Unauthorized", "reason": marker,
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Redact replaces every occurrence of the secret (raw and hex forms) in s
// with "[redacted]" — the last line of defence against a secret leaking
// through an error string, a journal record, or a captured stderr tail.
func (a *Authenticator) Redact(s string) string {
	return RedactSecret(s, a.secret)
}

// RedactSecret scrubs secret from s. Both the raw secret bytes and their
// hex encoding are scrubbed, since process environments carry the raw form
// while logs sometimes carry hex dumps.
func RedactSecret(s string, secret []byte) string {
	if len(secret) == 0 || s == "" {
		return s
	}
	s = strings.ReplaceAll(s, string(secret), "[redacted]")
	s = strings.ReplaceAll(s, hex.EncodeToString(secret), "[redacted]")
	return s
}
