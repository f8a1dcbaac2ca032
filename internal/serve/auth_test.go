package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func signedRequest(t *testing.T, a *Authenticator, method, target string, body []byte) *http.Request {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r := httptest.NewRequest(method, target, rd)
	if err := a.Sign(r, body); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return r
}

// echoBody records that the handler ran and that the body survived the
// middleware's read-and-replace.
func echoBody(ran *int, got *string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*ran++
		b, _ := io.ReadAll(r.Body)
		*got = string(b)
		w.WriteHeader(http.StatusOK)
	})
}

func TestAuthRoundTrip(t *testing.T) {
	a := NewAuthenticator([]byte("s3cret"))
	var ran int
	var got string
	h := a.Middleware(echoBody(&ran, &got))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, signedRequest(t, a, "POST", "/api/v1/run?x=1", []byte(`{"cell":3}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("signed request: status %d, body %s", rec.Code, rec.Body)
	}
	if ran != 1 || got != `{"cell":3}` {
		t.Fatalf("handler ran=%d body=%q; want 1, original body", ran, got)
	}

	// A signed body one byte over the cap is refused before next runs.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, signedRequest(t, a, "POST", "/api/v1/run", make([]byte, maxBodyBytes+1)))
	if rec.Code != http.StatusRequestEntityTooLarge || ran != 1 {
		t.Fatalf("oversized body: status %d, handler ran %d times; want 413, 1", rec.Code, ran)
	}
}

func TestAuthRejectsMissingAndWrongSecret(t *testing.T) {
	a := NewAuthenticator([]byte("s3cret"))
	var ran int
	var got string
	h := a.Middleware(echoBody(&ran, &got))

	// No headers at all.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/status", nil))
	if rec.Code != http.StatusUnauthorized || rec.Header().Get(AuthErrorHeader) != AuthErrMissing {
		t.Fatalf("unsigned: status %d marker %q", rec.Code, rec.Header().Get(AuthErrorHeader))
	}

	// Signed with a different secret.
	other := NewAuthenticator([]byte("wrong"))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, signedRequest(t, other, "GET", "/api/v1/status", nil))
	if rec.Code != http.StatusUnauthorized || rec.Header().Get(AuthErrorHeader) != AuthErrDenied {
		t.Fatalf("wrong secret: status %d marker %q", rec.Code, rec.Header().Get(AuthErrorHeader))
	}
	if AuthRetryable(AuthErrDenied) || AuthRetryable(AuthErrMissing) {
		t.Fatal("denied/missing must not be retryable")
	}
	if ran != 0 {
		t.Fatalf("handler ran %d times on rejected requests", ran)
	}
}

func TestAuthRejectsTamper(t *testing.T) {
	a := NewAuthenticator([]byte("s3cret"))
	var ran int
	var got string
	h := a.Middleware(echoBody(&ran, &got))

	// Body swapped after signing.
	r := signedRequest(t, a, "POST", "/api/v1/run", []byte(`{"cell":3}`))
	r.Body = io.NopCloser(strings.NewReader(`{"cell":4}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusUnauthorized || rec.Header().Get(AuthErrorHeader) != AuthErrDenied {
		t.Fatalf("tampered body: status %d marker %q", rec.Code, rec.Header().Get(AuthErrorHeader))
	}

	// Query rewritten after signing.
	r = signedRequest(t, a, "POST", "/admin/reload?dir=/good", nil)
	r.URL.RawQuery = "dir=/evil"
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusUnauthorized || rec.Header().Get(AuthErrorHeader) != AuthErrDenied {
		t.Fatalf("tampered query: status %d marker %q", rec.Code, rec.Header().Get(AuthErrorHeader))
	}
	if ran != 0 {
		t.Fatal("handler ran on tampered request")
	}
}

func TestAuthReplayAndResign(t *testing.T) {
	a := NewAuthenticator([]byte("s3cret"))
	var ran int
	var got string
	h := a.Middleware(echoBody(&ran, &got))

	r := signedRequest(t, a, "POST", "/api/v1/run", []byte(`{"cell":1}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("first delivery: %d", rec.Code)
	}

	// Byte-identical second delivery (what faults.Transport duplicate mode
	// produces): rejected as a replay, marked retryable.
	dup := httptest.NewRequest("POST", "/api/v1/run", strings.NewReader(`{"cell":1}`))
	dup.Header = r.Header.Clone()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, dup)
	if rec.Code != http.StatusUnauthorized || rec.Header().Get(AuthErrorHeader) != AuthErrReplay {
		t.Fatalf("replay: status %d marker %q", rec.Code, rec.Header().Get(AuthErrorHeader))
	}
	if !AuthRetryable(AuthErrReplay) {
		t.Fatal("replay must be retryable")
	}

	// Re-signing the same logical request draws a fresh nonce and succeeds.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, signedRequest(t, a, "POST", "/api/v1/run", []byte(`{"cell":1}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("re-signed: %d", rec.Code)
	}
	if ran != 2 {
		t.Fatalf("handler ran %d times, want 2", ran)
	}
}

func TestAuthStaleTimestamp(t *testing.T) {
	client := NewAuthenticator([]byte("s3cret"))
	server := NewAuthenticator([]byte("s3cret"))
	// Server clock is an hour ahead of the client's.
	server.now = func() time.Time { return time.Now().Add(time.Hour) }
	var ran int
	var got string
	h := server.Middleware(echoBody(&ran, &got))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, signedRequest(t, client, "GET", "/api/v1/status", nil))
	if rec.Code != http.StatusUnauthorized || rec.Header().Get(AuthErrorHeader) != AuthErrStale {
		t.Fatalf("stale: status %d marker %q", rec.Code, rec.Header().Get(AuthErrorHeader))
	}
	if !AuthRetryable(AuthErrStale) {
		t.Fatal("stale must be retryable")
	}
	if ran != 0 {
		t.Fatal("handler ran on stale request")
	}
}

func TestAuthNonceCachePrunes(t *testing.T) {
	a := NewAuthenticator([]byte("s3cret"))
	cur := time.Unix(1_700_000_000, 0)
	a.now = func() time.Time { return cur }
	var ran int
	var got string
	h := a.Middleware(echoBody(&ran, &got))
	for i := 0; i < 8; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, signedRequest(t, a, "GET", "/api/v1/status", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
	}
	// Jump past the window: the next verify prunes all eight nonces.
	cur = cur.Add(3 * time.Minute)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, signedRequest(t, a, "GET", "/api/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-window request: %d", rec.Code)
	}
	a.mu.Lock()
	n := len(a.seen)
	a.mu.Unlock()
	if n != 1 {
		t.Fatalf("nonce cache holds %d entries after window expiry, want 1", n)
	}
}

func TestLoadSecretFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "secret")
	if err := os.WriteFile(p, []byte("  deadbeef\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSecretFile(p)
	if err != nil || string(got) != "deadbeef" {
		t.Fatalf("LoadSecretFile = %q, %v", got, err)
	}
	if err := os.WriteFile(p, []byte(" \n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSecretFile(p); err == nil {
		t.Fatal("empty secret file accepted")
	}
	if _, err := LoadSecretFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing secret file accepted")
	}
}

func TestRedactSecret(t *testing.T) {
	secret := []byte("hunter2")
	in := "env PBSLAB_SECRET=hunter2 leaked, hex 68756e74657232 too"
	out := RedactSecret(in, secret)
	if strings.Contains(out, "hunter2") || strings.Contains(out, "68756e74657232") {
		t.Fatalf("secret survived redaction: %q", out)
	}
	if !strings.Contains(out, "[redacted]") {
		t.Fatalf("no redaction marker in %q", out)
	}
	if got := RedactSecret("clean", secret); got != "clean" {
		t.Fatalf("clean string mangled: %q", got)
	}
}

// TestAdminReloadRequiresAuth proves the pbslabd admin plane is gated when
// an AdminSecret is configured: unsigned reloads bounce with 401 and the
// store is never touched, while a signed reload reaches the handler.
func TestAdminReloadRequiresAuth(t *testing.T) {
	secret := []byte("admin-secret")
	srv := NewServer(Config{DataDir: t.TempDir(), AdminSecret: secret})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/admin/reload", nil))
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("unsigned reload: status %d, want 401", rec.Code)
	}

	a := NewAuthenticator(secret)
	r := signedRequest(t, a, "POST", "/admin/reload", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	// The data dir is empty so the reload is rejected by verification —
	// but with 422 from the handler, proving auth admitted the request.
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("signed reload: status %d body %s, want 422", rec.Code, rec.Body)
	}

	// GET routes stay open: auth gates mutation, not reads.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz with admin auth on: %d", rec.Code)
	}
}
