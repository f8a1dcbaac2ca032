// AgentTransport: the coordinator's client for one remote pbsagent. One
// attempt is a four-step conversation — dispatch (POST run, idempotent
// join), follow (a reconnectable heartbeat watch stream; a partition
// that heals within the lease TTL costs nothing), fetch (manifest first,
// then every artifact digest-verified byte-for-byte, so a truncated
// upload is re-pulled, never accepted), ack (release the agent's
// scratch). Every RPC retries with the shared deterministic backoff and
// honours Retry-After hints from a shedding agent.

package fleet

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	gohash "hash"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/backoff"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/serve"
)

// ErrAuthRejected marks an agent that refused the coordinator's
// credentials outright (401 with a terminal marker): a configuration
// error, not a lease failure. The coordinator disables the transport —
// dispatching into a wrong secret can never succeed — and re-places the
// cell elsewhere without charging a failure.
var ErrAuthRejected = errors.New("agent rejected credentials")

// AgentTransport runs attempts on one remote agent over HTTP(S).
type AgentTransport struct {
	// Spec is the agent's address and concurrent-attempt budget.
	Spec AgentSpec
	// HTTP is the client for every RPC; the chaos suite swaps in a
	// fault-injecting round tripper. It must not set Client.Timeout (the
	// watch stream is long-lived); per-RPC deadlines come from Timeout.
	HTTP *http.Client
	// Auth, when non-nil, signs every RPC with the fleet's shared secret.
	// Replay-rejected requests (a duplicated delivery consuming the nonce)
	// are re-signed and retried; terminal rejections surface as
	// ErrAuthRejected.
	Auth *serve.Authenticator
	// Ledger, when non-nil, tallies transfer bytes — the chaos suite's
	// proof that a resumed fetch re-transfers only the missing tail.
	Ledger *TransferLedger
	// Retry is the per-RPC backoff policy (default 50ms base, 2s cap).
	Retry backoff.Policy
	// Attempts is the per-RPC try budget (default 4).
	Attempts int
	// Timeout bounds each non-watch RPC (default 10s).
	Timeout time.Duration
	// Seed feeds the deterministic retry jitter.
	Seed uint64

	jmu    sync.Mutex
	jitter *backoff.Jitter
}

// TransferLedger counts artifact-fetch bytes on the wire. WireBytes is
// every body byte actually received; ResumedBytes is bytes skipped
// because a ranged request resumed past an already-verified prefix;
// Restarts counts transfers that had to start over from byte zero.
type TransferLedger struct {
	mu           sync.Mutex
	wireBytes    int64
	resumedBytes int64
	ranged       int
	restarts     int
}

func (l *TransferLedger) addWire(n int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.wireBytes += n
	l.mu.Unlock()
}

func (l *TransferLedger) noteResume(off int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.resumedBytes += off
	l.ranged++
	l.mu.Unlock()
}

func (l *TransferLedger) noteRestart() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.restarts++
	l.mu.Unlock()
}

// TransferStats is a TransferLedger snapshot.
type TransferStats struct {
	// WireBytes is the total body bytes received across all fetches.
	WireBytes int64
	// ResumedBytes is the bytes *not* re-transferred thanks to ranged
	// resume: the sum of the offsets granted by 206 responses.
	ResumedBytes int64
	// RangedRequests counts 206-resumed requests; Restarts counts
	// transfers forced back to byte zero.
	RangedRequests int
	Restarts       int
}

// Stats snapshots the ledger.
func (l *TransferLedger) Stats() TransferStats {
	if l == nil {
		return TransferStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return TransferStats{
		WireBytes:      l.wireBytes,
		ResumedBytes:   l.resumedBytes,
		RangedRequests: l.ranged,
		Restarts:       l.restarts,
	}
}

// NewAgentTransport returns a transport for one agent with defaults
// suitable for a LAN fleet.
func NewAgentTransport(spec AgentSpec) *AgentTransport {
	return &AgentTransport{Spec: spec}
}

// Name implements Transport.
func (t *AgentTransport) Name() string { return "agent:" + t.Spec.Addr }

// AgentAddr is the agent identity recorded in journal lease records.
func (t *AgentTransport) AgentAddr() string { return t.Spec.Addr }

// Capacity implements Transport.
func (t *AgentTransport) Capacity() int {
	if t.Spec.Capacity < 1 {
		return 1
	}
	return t.Spec.Capacity
}

func (t *AgentTransport) client() *http.Client {
	if t.HTTP != nil {
		return t.HTTP
	}
	return http.DefaultClient
}

// baseURL is the agent's scheme://addr root, honouring Spec.TLS.
func (t *AgentTransport) baseURL() string {
	if t.Spec.TLS {
		return "https://" + t.Spec.Addr
	}
	return "http://" + t.Spec.Addr
}

// sign stamps req with the fleet secret when auth is configured. body must
// be the exact request body bytes (nil for bodyless requests).
func (t *AgentTransport) sign(req *http.Request, body []byte) error {
	if t.Auth == nil {
		return nil
	}
	return t.Auth.Sign(req, body)
}

func (t *AgentTransport) tries() int {
	if t.Attempts > 0 {
		return t.Attempts
	}
	return 4
}

func (t *AgentTransport) rpcTimeout() time.Duration {
	if t.Timeout > 0 {
		return t.Timeout
	}
	return 10 * time.Second
}

// delay is the shared deterministic backoff with Retry-After honoured as
// a floor, jittered per agent so a fleet of retries never synchronizes.
func (t *AgentTransport) delay(attempt int, retryAfter time.Duration) time.Duration {
	t.jmu.Lock()
	if t.jitter == nil {
		t.jitter = backoff.NewJitter(t.Seed, "fleet/agent/"+t.Spec.Addr)
	}
	j := t.jitter
	t.jmu.Unlock()
	p := t.Retry
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	return p.Delay(attempt, retryAfter, j)
}

// rpcError is a non-2xx agent reply; permanent codes (404, 409) are
// classified by callers, everything else retries. authMarker carries the
// 401 rejection cause; draining marks a 503 from a shutting-down agent.
type rpcError struct {
	code       int
	msg        string
	authMarker string
	draining   bool
}

func (e *rpcError) Error() string {
	return fmt.Sprintf("agent replied %d: %s", e.code, e.msg)
}

func retryable(err error) bool {
	var re *rpcError
	if errors.As(err, &re) {
		switch {
		case re.code == http.StatusUnauthorized:
			// Replay/stale rejections mean the secret is right but the
			// nonce or timestamp was consumed (a duplicated delivery, a
			// clock blip): re-signing fixes it. Everything else is a wrong
			// secret — no retry can help.
			return serve.AuthRetryable(re.authMarker)
		case re.code == http.StatusServiceUnavailable && re.draining:
			// A draining agent refuses all new work until it exits;
			// retrying into it wastes the budget. Callers re-place the
			// work elsewhere.
			return false
		case re.code == http.StatusTooManyRequests || re.code == http.StatusServiceUnavailable:
			return true
		case re.code >= 500:
			return true
		default:
			return false
		}
	}
	// Transport-level errors (refused, reset, truncated, timed out).
	return true
}

// authRejected reports a terminal credentials rejection.
func authRejected(err error) bool {
	var re *rpcError
	return errors.As(err, &re) && re.code == http.StatusUnauthorized &&
		!serve.AuthRetryable(re.authMarker)
}

// rpcErrorFrom builds the classified error for a non-2xx response.
func rpcErrorFrom(resp *http.Response) *rpcError {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &rpcError{
		code:       resp.StatusCode,
		msg:        strings.TrimSpace(string(msg)),
		authMarker: resp.Header.Get(serve.AuthErrorHeader),
		draining:   resp.Header.Get(AgentDrainingHeader) != "",
	}
}

func errCode(err error) int {
	var re *rpcError
	if errors.As(err, &re) {
		return re.code
	}
	return 0
}

// retryAfterHint extracts a Retry-After header — delta-seconds or
// HTTP-date — as a duration.
func retryAfterHint(h http.Header) time.Duration {
	return backoff.ParseRetryAfter(h.Get("Retry-After"), time.Now())
}

// doJSON runs one retrying JSON RPC against the agent.
func (t *AgentTransport) doJSON(ctx context.Context, method, pth string, in, out any) error {
	var lastErr error
	for i := 1; ; i++ {
		retryAfter, err := t.doOnce(ctx, method, pth, in, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) || i >= t.tries() || ctx.Err() != nil {
			return lastErr
		}
		if !sleepCtx(ctx, t.delay(i, retryAfter)) {
			return lastErr
		}
	}
}

func (t *AgentTransport) doOnce(ctx context.Context, method, pth string, in, out any) (time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, t.rpcTimeout())
	defer cancel()
	var data []byte
	var body io.Reader
	if in != nil {
		var err error
		data, err = json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(rctx, method, t.baseURL()+pth, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Signed inside the retry loop: every retry draws a fresh nonce, so a
	// replay rejection (a duplicated delivery consumed the nonce) heals on
	// the next try.
	if err := t.sign(req, data); err != nil {
		return 0, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return retryAfterHint(resp.Header), rpcErrorFrom(resp)
	}
	if out == nil {
		return 0, nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out); err != nil {
		return 0, fmt.Errorf("decode agent reply: %w", err)
	}
	return 0, nil
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Run implements Transport: dispatch the attempt to the agent, follow it
// to completion, and stage the verified artifacts into workDir.
func (t *AgentTransport) Run(ctx context.Context, a Attempt, workDir string, beat func()) error {
	rr := RunRequest{Cell: a.Cell, Epoch: a.Epoch, Heartbeat: a.Heartbeat, Env: a.Env}
	var st AgentRunStatus
	if err := t.doJSON(ctx, http.MethodPost, AgentPathRun, rr, &st); err != nil {
		if errCode(err) == http.StatusConflict {
			return &AttemptError{Cause: fmt.Sprintf("agent %s fenced the dispatch as stale: %v", t.Spec.Addr, err)}
		}
		if authRejected(err) {
			// Wrong secret: a config error, not a lease failure. The
			// coordinator disables this transport and never dispatches to
			// it again.
			return fmt.Errorf("%w: %s: %v", ErrAuthRejected, t.Name(), err)
		}
		// Never accepted anywhere (including a draining agent's immediate
		// 503 refusal): the cell lost nothing, so no failure is charged —
		// the coordinator re-places it.
		return fmt.Errorf("%w: %s: %v", ErrUndispatched, t.Name(), err)
	}
	beat() // the accepted dispatch is the first liveness signal

	ev, err := t.follow(ctx, a, beat)
	if err != nil {
		return err
	}
	if ev.Superseded {
		return &AttemptError{Cause: fmt.Sprintf("agent %s superseded the attempt with a newer epoch", t.Spec.Addr)}
	}
	if !ev.OK {
		return &AttemptError{Cause: ev.Cause, Tail: ev.StderrTail}
	}
	if err := t.fetch(ctx, a, workDir, beat); err != nil {
		return err
	}
	// Best-effort scratch release; a lost ack only costs agent disk until
	// the next epoch for this cell fences it.
	_ = t.doJSON(ctx, http.MethodPost, AgentPathAck, AgentCellRef{Cell: a.Cell.ID, Epoch: a.Epoch}, nil)
	return nil
}

// follow tails the attempt's watch stream until its final event,
// reconnecting through partitions for as long as the attempt's lease
// context stays alive — the coordinator's lease deadline, fed by the
// heartbeats this stream relays, is the real failure detector.
func (t *AgentTransport) follow(ctx context.Context, a Attempt, beat func()) (*WatchEvent, error) {
	for i := 1; ; i++ {
		ev, err := t.watchOnce(ctx, a, beat)
		if ev != nil {
			return ev, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		switch errCode(err) {
		case http.StatusNotFound:
			// The agent no longer knows the run: it restarted and lost
			// its state. The attempt is gone; charge it and retry fresh.
			return nil, &AttemptError{Cause: fmt.Sprintf("agent %s lost the attempt (agent restarted): %v", t.Spec.Addr, err)}
		case http.StatusConflict:
			return nil, &AttemptError{Cause: fmt.Sprintf("agent %s superseded the attempt: %v", t.Spec.Addr, err)}
		}
		if authRejected(err) {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuthRejected, t.Name(), err)
		}
		if !sleepCtx(ctx, t.delay(min(i, t.tries()), 0)) {
			return nil, ctx.Err()
		}
	}
}

// watchOnce runs one watch connection: heartbeat lines feed beat, the
// final JSON line is the verdict. No per-RPC timeout — the stream lives
// as long as the run; a silent wedged connection is broken by the lease
// reclaim cancelling ctx.
func (t *AgentTransport) watchOnce(ctx context.Context, a Attempt, beat func()) (*WatchEvent, error) {
	url := fmt.Sprintf("%s%s%s/%d", t.baseURL(), AgentPathWatch, a.Cell.ID, a.Epoch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if err := t.sign(req, nil); err != nil {
		return nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, rpcErrorFrom(resp)
	}
	beat() // a live stream is itself a liveness signal
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == heartbeatLine:
			beat()
		default:
			var ev WatchEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, fmt.Errorf("parse watch event: %w", err)
			}
			if ev.Done {
				beat()
				return &ev, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Stream ended without a final event: the connection died mid-run.
	return nil, io.ErrUnexpectedEOF
}

// fetch stages the finished attempt into workDir: manifest first, then
// every artifact over the ranged resumable path, re-verified against its
// manifest digest as it lands. A cut link resumes from the last fsynced
// byte instead of byte zero; a corrupted transfer restarts; the manifest
// itself is written last, so a partially fetched directory can never
// verify.
func (t *AgentTransport) fetch(ctx context.Context, a Attempt, workDir string, beat func()) error {
	manData, err := t.fetchFile(ctx, a, report.ManifestName, "")
	if err != nil {
		return &AttemptError{Cause: fmt.Sprintf("fetch manifest from agent %s: %v", t.Spec.Addr, err)}
	}
	var man report.Manifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return &AttemptError{Cause: fmt.Sprintf("parse manifest from agent %s: %v", t.Spec.Addr, err)}
	}
	for _, e := range man.Artifacts {
		clean := path.Clean(e.Name)
		if clean != e.Name || path.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, "../") {
			return &AttemptError{Cause: fmt.Sprintf("agent %s manifest lists unsafe artifact path %q", t.Spec.Addr, e.Name)}
		}
		dst := filepath.Join(workDir, filepath.FromSlash(clean))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return &AttemptError{Cause: "stage artifact: " + err.Error()}
		}
		if err := t.fetchFileTo(ctx, a, e.Name, e.SHA256, dst, beat); err != nil {
			return &AttemptError{Cause: fmt.Sprintf("fetch %s from agent %s: %v", e.Name, t.Spec.Addr, err)}
		}
		beat() // downloading is progress; keep the lease fresh
	}
	if err := atomicio.WriteFile(filepath.Join(workDir, report.ManifestName), manData, 0o644); err != nil {
		return &AttemptError{Cause: "stage manifest: " + err.Error()}
	}
	return nil
}

// fetchFile downloads one small control file into memory, retrying until
// the exchange is clean. Only the manifest travels this path (wantSum "" —
// the coordinator's VerifyDir re-checks it against every staged file);
// artifacts go through fetchFileTo, which can resume.
func (t *AgentTransport) fetchFile(ctx context.Context, a Attempt, name, wantSum string) ([]byte, error) {
	url := fmt.Sprintf("%s%s%s/%d/%s", t.baseURL(), AgentPathResult, a.Cell.ID, a.Epoch, name)
	var lastErr error
	for i := 1; ; i++ {
		data, retryAfter, err := t.getOnce(ctx, url)
		if err == nil && wantSum != "" {
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != wantSum {
				err = fmt.Errorf("digest %s does not match manifest %s (truncated transfer?)", got, wantSum)
			}
		}
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retryable(err) || i >= t.tries() || ctx.Err() != nil {
			return nil, lastErr
		}
		if !sleepCtx(ctx, t.delay(i, retryAfter)) {
			return nil, lastErr
		}
	}
}

func (t *AgentTransport) getOnce(ctx context.Context, url string) ([]byte, time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, t.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := t.sign(req, nil); err != nil {
		return nil, 0, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, retryAfterHint(resp.Header), rpcErrorFrom(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.ContentLength >= 0 && int64(len(data)) != resp.ContentLength {
		return nil, 0, fmt.Errorf("short body: %d of %d bytes", len(data), resp.ContentLength)
	}
	return data, 0, nil
}

// fetchFileTo downloads one artifact into dst via a fsynced staging file
// (dst + ".partial"), resuming with ranged requests from the last banked
// byte after a cut. A running SHA-256 accumulates as chunks land — on
// (re)entry the already-staged prefix is re-hashed from disk — and the
// whole-file digest against wantSum stays the final arbiter: a clean-
// looking transfer with wrong bytes restarts from zero. Forward progress
// refunds the retry budget, so a link that keeps cutting but keeps moving
// converges instead of giving up.
func (t *AgentTransport) fetchFileTo(ctx context.Context, a Attempt, name, wantSum, dst string, beat func()) error {
	url := fmt.Sprintf("%s%s%s/%d/%s", t.baseURL(), AgentPathResult, a.Cell.ID, a.Epoch, name)
	staging := dst + ".partial"
	f, err := os.OpenFile(staging, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	hash := sha256.New()
	off, err := io.Copy(hash, f) // re-hash any banked prefix; leaves the write position at off
	if err != nil {
		return err
	}

	var lastErr error
	digestFails := 0
	for i := 1; ; i++ {
		n, retryAfter, err := t.getRange(ctx, url, f, hash, &off)
		if n > 0 {
			beat() // banked bytes are progress; keep the lease fresh
		}
		if err == nil {
			if wantSum != "" {
				if got := hex.EncodeToString(hash.Sum(nil)); got != wantSum {
					// Clean exchange, wrong bytes (torn upload, corrupt
					// staging): restart from zero. Digest failures never
					// refund the budget — a server that keeps serving
					// garbage must not loop forever.
					err = fmt.Errorf("digest %s does not match manifest %s (corrupt transfer)", got, wantSum)
					digestFails++
					if rerr := truncateReset(f, hash, &off); rerr != nil {
						return rerr
					}
					t.Ledger.noteRestart()
				}
			}
			if err == nil {
				if serr := f.Sync(); serr != nil {
					return serr
				}
				return os.Rename(staging, dst)
			}
		}
		lastErr = err
		if n > 0 && digestFails == 0 {
			i = 0 // forward progress refunds the try budget
		}
		if !retryable(err) || i >= t.tries() || digestFails >= t.tries() || ctx.Err() != nil {
			return lastErr
		}
		if !sleepCtx(ctx, t.delay(max(i, 1), retryAfter)) {
			return lastErr
		}
	}
}

// truncateReset rewinds the staging file and running hash to byte zero.
func truncateReset(f *os.File, hash gohash.Hash, off *int64) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	hash.Reset()
	*off = 0
	return nil
}

// parseContentRange extracts start and total from a 206's
// "bytes <start>-<end>/<total>" header (total may be "*").
func parseContentRange(v string) (start, total int64, err error) {
	rest, ok := strings.CutPrefix(v, "bytes ")
	if !ok {
		return 0, 0, fmt.Errorf("unparseable Content-Range %q", v)
	}
	span, tot, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, 0, fmt.Errorf("unparseable Content-Range %q", v)
	}
	first, _, ok := strings.Cut(span, "-")
	if !ok {
		return 0, 0, fmt.Errorf("unparseable Content-Range %q", v)
	}
	start, err = strconv.ParseInt(first, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("unparseable Content-Range %q: %v", v, err)
	}
	total = -1
	if tot != "*" {
		total, err = strconv.ParseInt(tot, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("unparseable Content-Range %q: %v", v, err)
		}
	}
	return start, total, nil
}

// parseUnsatisfiedRange extracts the total from a 416's "bytes */<total>".
func parseUnsatisfiedRange(v string) (int64, error) {
	rest, ok := strings.CutPrefix(v, "bytes */")
	if !ok {
		return 0, fmt.Errorf("unparseable Content-Range %q", v)
	}
	return strconv.ParseInt(rest, 10, 64)
}

// getRange performs one transfer leg: a full GET at offset zero, a ranged
// GET past a banked prefix. Whatever bytes arrive are appended to the
// staging file, hashed, and fsynced chunk by chunk before the leg's error
// (if any) is reported, so every banked byte survives the next cut. A nil
// error means the body was read to EOF — transfer believed complete,
// subject to the caller's digest gate.
func (t *AgentTransport) getRange(ctx context.Context, url string, f *os.File, hash gohash.Hash, off *int64) (int64, time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, t.rpcTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	if *off > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", *off))
	}
	if err := t.sign(req, nil); err != nil {
		return 0, 0, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Full body: either we asked from zero, or the server ignored the
		// range — restart to stay correct.
		if *off > 0 {
			if err := truncateReset(f, hash, off); err != nil {
				return 0, 0, err
			}
			t.Ledger.noteRestart()
		}
	case http.StatusPartialContent:
		start, _, err := parseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			return 0, 0, err
		}
		if start != *off {
			// The server resumed somewhere unexpected; bank nothing.
			want := *off
			if rerr := truncateReset(f, hash, off); rerr != nil {
				return 0, 0, rerr
			}
			t.Ledger.noteRestart()
			return 0, 0, fmt.Errorf("agent resumed range at %d, want %d", start, want)
		}
		t.Ledger.noteResume(*off)
	case http.StatusRequestedRangeNotSatisfiable:
		// Asking past the end: the staged prefix already covers the whole
		// file (the link died exactly at the final byte). The digest gate
		// arbitrates; an overlong or unparseable prefix restarts.
		if total, perr := parseUnsatisfiedRange(resp.Header.Get("Content-Range")); perr == nil && total == *off {
			return 0, 0, nil
		}
		if rerr := truncateReset(f, hash, off); rerr != nil {
			return 0, 0, rerr
		}
		t.Ledger.noteRestart()
		return 0, 0, fmt.Errorf("agent range reply unsatisfiable: %s", resp.Header.Get("Content-Range"))
	default:
		return 0, retryAfterHint(resp.Header), rpcErrorFrom(resp)
	}

	buf := make([]byte, 128<<10)
	var n int64
	for {
		m, rerr := resp.Body.Read(buf)
		if m > 0 {
			if _, werr := f.Write(buf[:m]); werr != nil {
				return n, 0, werr
			}
			hash.Write(buf[:m])
			// fsync per chunk: a banked byte is a byte never re-transferred,
			// even across a process crash mid-fetch.
			if serr := f.Sync(); serr != nil {
				return n, 0, serr
			}
			*off += int64(m)
			n += int64(m)
			t.Ledger.addWire(int64(m))
		}
		if rerr == io.EOF {
			return n, 0, nil
		}
		if rerr != nil {
			return n, 0, rerr
		}
	}
}

// Abort tells the agent to kill and discard a (cell, epoch) attempt and
// to fence that epoch. Fire-and-forget: the reclaim that triggers it
// already charged the attempt, and an unreachable agent's run is fenced
// anyway the next time any RPC for a newer epoch lands.
func (t *AgentTransport) Abort(cell string, epoch int) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = t.doJSON(ctx, http.MethodPost, AgentPathAbort, AgentCellRef{Cell: cell, Epoch: epoch}, nil)
}

// Status probes the agent's held runs — the resume path uses it to tell
// "cell still running remotely" from "cell lost with the agent".
func (t *AgentTransport) Status(ctx context.Context) (*AgentStatusReply, error) {
	var reply AgentStatusReply
	if err := t.doJSON(ctx, http.MethodGet, AgentPathStatus, nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
