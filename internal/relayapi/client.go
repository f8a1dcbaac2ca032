package relayapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/backoff"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/types"
)

// RetryPolicy governs idempotent GET retries: capped exponential backoff
// with deterministic jitter drawn from Seed, honouring Retry-After on 429s.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per request (first try included).
	MaxAttempts int
	// BaseDelay is the first backoff; each retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed feeds the deterministic jitter stream (per client name).
	Seed uint64
}

const (
	defaultMaxAttempts = 4
	defaultBaseDelay   = 50 * time.Millisecond
	defaultMaxDelay    = 2 * time.Second
	defaultTimeout     = 10 * time.Second
	defaultMaxBody     = 8 << 20 // 8 MiB per response
	defaultMaxPages    = 10_000
	defaultStallLimit  = 8
)

var (
	errNoContent = errors.New("relayapi: no content")
	// ErrBadContentType flags a response that is not application/json; the
	// body is never fed to the decoder.
	ErrBadContentType = errors.New("relayapi: non-JSON content type")
	// ErrCrawlStalled flags a relay that re-serves the same page without the
	// cursor making progress — the unbounded-loop hazard of a misbehaving
	// data API.
	ErrCrawlStalled = errors.New("relayapi: crawl stalled")
	// ErrTooManyPages flags a crawl that exceeded the page cap.
	ErrTooManyPages = errors.New("relayapi: crawl exceeded page cap")
)

// Client talks to one relay's HTTP API.
type Client struct {
	// Name labels the relay in crawler output.
	Name string
	// BaseURL is the relay endpoint (no trailing slash).
	BaseURL string
	// HTTP is the underlying client; defaults to http.DefaultClient. The
	// per-request Timeout below applies regardless.
	HTTP *http.Client
	// Retry governs idempotent GET retries; zero fields take defaults.
	Retry RetryPolicy
	// Timeout bounds each individual request attempt (default 10s).
	Timeout time.Duration
	// MaxBodyBytes bounds how much of a response body is decoded
	// (default 8 MiB).
	MaxBodyBytes int64
	// MaxPages caps one crawl's page count (default 10000).
	MaxPages int
	// StallLimit is how many consecutive no-progress pages a crawl
	// tolerates before declaring the relay stalled (default 8).
	StallLimit int
	// Sleep implements backoff waits; defaults to time.Sleep. Tests inject
	// a recorder.
	Sleep func(time.Duration)

	statsMu sync.Mutex
	retries int
	jitter  *backoff.Jitter
}

// NewClient builds a client for a relay endpoint with default fault
// tolerance: 10s per-attempt timeout, 4 attempts with 50ms–2s backoff.
func NewClient(name, baseURL string) *Client {
	return &Client{Name: name, BaseURL: baseURL}
}

// Retries reports how many request retries this client has performed.
func (c *Client) Retries() int {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.retries
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.Retry.MaxAttempts > 0 {
		return c.Retry.MaxAttempts
	}
	return defaultMaxAttempts
}

func (c *Client) baseDelay() time.Duration {
	if c.Retry.BaseDelay > 0 {
		return c.Retry.BaseDelay
	}
	return defaultBaseDelay
}

func (c *Client) maxDelay() time.Duration {
	if c.Retry.MaxDelay > 0 {
		return c.Retry.MaxDelay
	}
	return defaultMaxDelay
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

func (c *Client) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return defaultMaxBody
}

func (c *Client) maxPages() int {
	if c.MaxPages > 0 {
		return c.MaxPages
	}
	return defaultMaxPages
}

func (c *Client) stallLimit() int {
	if c.StallLimit > 0 {
		return c.StallLimit
	}
	return defaultStallLimit
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoffDelay computes the wait before retry number attempt (1-based) by
// delegating to the shared backoff policy: capped exponential backoff scaled
// by a deterministic jitter factor in [0.5, 1), never shorter than the
// server's Retry-After hint.
func (c *Client) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	c.statsMu.Lock()
	if c.jitter == nil {
		c.jitter = backoff.NewJitter(c.Retry.Seed, "relayapi/retry/"+c.Name)
	}
	j := c.jitter
	c.statsMu.Unlock()
	return backoff.Policy{Base: c.baseDelay(), Max: c.maxDelay()}.Delay(attempt, retryAfter, j)
}

func (c *Client) countRetry() {
	c.statsMu.Lock()
	c.retries++
	c.statsMu.Unlock()
}

// checkContentType rejects anything but JSON before the decoder sees it.
func checkContentType(resp *http.Response) error {
	ct := resp.Header.Get("Content-Type")
	if ct == "" {
		return fmt.Errorf("%w: missing Content-Type", ErrBadContentType)
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
		return fmt.Errorf("%w: %q", ErrBadContentType, ct)
	}
	return nil
}

// getOnce performs a single GET attempt. retryable marks transport errors,
// 5xx, 429 and body-truncation decode failures; protocol errors (bad
// status, wrong content type) are final.
func (c *Client) getOnce(ctx context.Context, path string, out interface{}) (err error, retryable bool, retryAfter time.Duration) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("relayapi: GET %s: %w", path, err), false, 0
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// The parent context being done makes retrying pointless.
		return fmt.Errorf("relayapi: GET %s: %w", path, err), ctx.Err() == nil, 0
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return errNoContent, false, 0
	case resp.StatusCode == http.StatusTooManyRequests:
		retryAfter = backoff.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return fmt.Errorf("relayapi: GET %s: status 429", path), true, retryAfter
	case resp.StatusCode >= 500:
		return fmt.Errorf("relayapi: GET %s: status %d", path, resp.StatusCode), true, 0
	case resp.StatusCode != http.StatusOK:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("relayapi: GET %s: status %d: %s", path, resp.StatusCode, body), false, 0
	}
	if err := checkContentType(resp); err != nil {
		return fmt.Errorf("relayapi: GET %s: %w", path, err), false, 0
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, c.maxBody())).Decode(out); err != nil {
		// Truncated or garbled bodies are a transport fault: retry.
		return fmt.Errorf("relayapi: GET %s: decode: %w", path, err), true, 0
	}
	return nil, false, 0
}

// getJSON is the retrying GET core: idempotent requests are retried with
// capped exponential backoff and deterministic jitter.
func (c *Client) getJSON(ctx context.Context, path string, out interface{}) error {
	var lastErr error
	attempts := c.maxAttempts()
	for attempt := 0; attempt < attempts; attempt++ {
		err, retryable, retryAfter := c.getOnce(ctx, path, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt+1 >= attempts || ctx.Err() != nil {
			break
		}
		c.countRetry()
		c.sleep(c.backoffDelay(attempt+1, retryAfter))
	}
	return lastErr
}

func (c *Client) postJSON(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("relayapi: POST %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("relayapi: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("relayapi: POST %s: status %d: %s", path, resp.StatusCode, msg)
	}
	if out != nil {
		if err := checkContentType(resp); err != nil {
			return fmt.Errorf("relayapi: POST %s: %w", path, err)
		}
		return json.NewDecoder(io.LimitReader(resp.Body, c.maxBody())).Decode(out)
	}
	return nil
}

// SubmitBlock posts a builder submission.
func (c *Client) SubmitBlock(ctx context.Context, sub *pbs.Submission) error {
	return c.postJSON(ctx, PathSubmitBlock, EncodeSubmission(sub), nil)
}

// GetHeader fetches the blinded bid for a slot. ok=false when the relay has
// no bid.
func (c *Client) GetHeader(ctx context.Context, slot uint64, parent types.Hash, pub types.PubKey) (*pbs.Bid, bool, error) {
	path := fmt.Sprintf("%s%d/%s/%s", PathGetHeader, slot, parent.Hex(), pub.Hex())
	var j BidJSON
	if err := c.getJSON(ctx, path, &j); err != nil {
		if err == errNoContent {
			return nil, false, nil
		}
		return nil, false, err
	}
	bid, err := DecodeBid(j)
	if err != nil {
		return nil, false, err
	}
	return bid, true, nil
}

// GetPayload exchanges a signed blinded header for the full payload.
func (c *Client) GetPayload(ctx context.Context, signed *pbs.SignedBlindedHeader) (*types.Block, error) {
	var resp struct {
		Header       HeaderJSON        `json:"header"`
		Transactions []TransactionJSON `json:"transactions"`
	}
	if err := c.postJSON(ctx, PathGetPayload, EncodeSignedBlindedHeader(signed), &resp); err != nil {
		return nil, err
	}
	header, err := DecodeHeader(resp.Header)
	if err != nil {
		return nil, err
	}
	txs := make([]*types.Transaction, 0, len(resp.Transactions))
	for i, tj := range resp.Transactions {
		tx, err := DecodeTransaction(tj)
		if err != nil {
			return nil, fmt.Errorf("relayapi: payload tx %d: %w", i, err)
		}
		txs = append(txs, tx)
	}
	return types.NewBlock(header, txs), nil
}

// RegisterValidators posts validator registrations.
func (c *Client) RegisterValidators(ctx context.Context, regs []pbs.Registration) error {
	payload := make([]registrationJSON, 0, len(regs))
	for _, r := range regs {
		payload = append(payload, registrationJSON{
			Pubkey:       r.Pubkey.Hex(),
			FeeRecipient: r.FeeRecipient.Hex(),
			GasLimit:     strconv.FormatUint(r.GasLimit, 10),
			VerifyKey:    r.VerifyKey.Hex(),
		})
	}
	return c.postJSON(ctx, PathRegisterVal, payload, nil)
}

// Validators fetches the relay's current proposer registrations.
func (c *Client) Validators(ctx context.Context) ([]pbs.Registration, error) {
	var page []registrationJSON
	if err := c.getJSON(ctx, PathValidators, &page); err != nil {
		return nil, err
	}
	out := make([]pbs.Registration, 0, len(page))
	for _, j := range page {
		pub, err := crypto.ParsePubKey(j.Pubkey)
		if err != nil {
			return nil, fmt.Errorf("relayapi: pubkey: %w", err)
		}
		fee, err := crypto.ParseAddress(j.FeeRecipient)
		if err != nil {
			return nil, fmt.Errorf("relayapi: fee recipient: %w", err)
		}
		gasLimit, err := strconv.ParseUint(j.GasLimit, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("relayapi: gas limit: %w", err)
		}
		vk, err := crypto.ParseHash(j.VerifyKey)
		if err != nil {
			return nil, fmt.Errorf("relayapi: verify key: %w", err)
		}
		out = append(out, pbs.Registration{
			Pubkey: pub, FeeRecipient: fee, GasLimit: gasLimit, VerifyKey: vk,
		})
	}
	return out, nil
}

// DeliveredPage fetches one page of proposer_payload_delivered.
func (c *Client) DeliveredPage(ctx context.Context, cursor uint64, limit int) ([]pbs.BidTrace, error) {
	return c.tracePage(ctx, PathDelivered, cursor, limit)
}

// ReceivedPage fetches one page of builder_blocks_received.
func (c *Client) ReceivedPage(ctx context.Context, cursor uint64, limit int) ([]pbs.BidTrace, error) {
	return c.tracePage(ctx, PathReceived, cursor, limit)
}

func (c *Client) tracePage(ctx context.Context, path string, cursor uint64, limit int) ([]pbs.BidTrace, error) {
	v := url.Values{}
	v.Set(queryParamLimit, strconv.Itoa(limit))
	if cursor != ^uint64(0) {
		v.Set(queryParamCursor, strconv.FormatUint(cursor, 10))
	}
	var page []BidTraceJSON
	if err := c.getJSON(ctx, path+"?"+v.Encode(), &page); err != nil {
		return nil, err
	}
	out := make([]pbs.BidTrace, 0, len(page))
	for _, j := range page {
		tr, err := DecodeBidTrace(j)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// CrawlState checkpoints a crawl so a mid-crawl failure resumes where it
// left off instead of restarting from the top.
type CrawlState struct {
	// Cursor is the next page's descending-slot cursor.
	Cursor uint64
	// Traces accumulates the deduplicated harvest so far.
	Traces []pbs.BidTrace
	// Pages counts fetched pages; Stall counts consecutive no-progress
	// pages.
	Pages int
	Stall int
	// Done marks a completed crawl.
	Done bool

	seen map[types.Hash]bool
}

// NewCrawlState starts a crawl from the newest slot.
func NewCrawlState() *CrawlState {
	return &CrawlState{Cursor: ^uint64(0), seen: map[types.Hash]bool{}}
}

func (st *CrawlState) ensureSeen() {
	if st.seen != nil {
		return
	}
	st.seen = make(map[types.Hash]bool, len(st.Traces))
	for _, tr := range st.Traces {
		st.seen[tr.BlockHash] = true
	}
}

// crawlFrom walks a paginated bidtrace endpoint from the checkpoint to
// exhaustion, following the descending-slot cursor exactly as the paper's
// crawler did. On error the state holds everything harvested so far; the
// caller may retry crawlFrom with the same state to resume. Two watchdogs
// bound misbehaving relays: a relay whose cursor stops descending trips
// ErrCrawlStalled, and MaxPages trips ErrTooManyPages.
func (c *Client) crawlFrom(ctx context.Context, path string, pageSize int, st *CrawlState) error {
	st.ensureSeen()
	for !st.Done {
		if st.Pages >= c.maxPages() {
			return fmt.Errorf("%w: %s after %d pages", ErrTooManyPages, c.Name, st.Pages)
		}
		page, err := c.tracePage(ctx, path, st.Cursor, pageSize)
		if err != nil {
			return err
		}
		st.Pages++
		progressed := false
		for _, tr := range page {
			if st.seen[tr.BlockHash] {
				continue
			}
			st.seen[tr.BlockHash] = true
			st.Traces = append(st.Traces, tr)
			progressed = true
		}
		if len(page) < pageSize {
			st.Done = true
			return nil
		}
		last := page[len(page)-1].Slot
		if progressed {
			// Re-anchor at the last slot: same-slot ties that straddled the
			// page boundary are re-served and deduplicated.
			st.Stall = 0
			st.Cursor = last
			continue
		}
		// A full page of already-seen traces. An honest relay only serves
		// slots <= cursor, so the next cursor must strictly descend; a relay
		// re-serving the same page regardless of cursor would loop forever.
		if last > st.Cursor {
			return fmt.Errorf("%w: %s re-served slot %d above cursor %d", ErrCrawlStalled, c.Name, last, st.Cursor)
		}
		st.Stall++
		if st.Stall >= c.stallLimit() {
			return fmt.Errorf("%w: %s made no progress for %d pages", ErrCrawlStalled, c.Name, st.Stall)
		}
		if last == 0 {
			st.Done = true
			return nil
		}
		st.Cursor = last - 1
	}
	return nil
}

// ResumeDelivered continues (or starts) a delivered crawl from a
// checkpoint.
func (c *Client) ResumeDelivered(ctx context.Context, pageSize int, st *CrawlState) error {
	return c.crawlFrom(ctx, PathDelivered, pageSize, st)
}

// CrawlDelivered walks the delivered endpoint to exhaustion.
func (c *Client) CrawlDelivered(ctx context.Context, pageSize int) ([]pbs.BidTrace, error) {
	st := NewCrawlState()
	err := c.crawlFrom(ctx, PathDelivered, pageSize, st)
	return st.Traces, err
}

// CrawlReceived walks the received endpoint to exhaustion.
func (c *Client) CrawlReceived(ctx context.Context, pageSize int) ([]pbs.BidTrace, error) {
	st := NewCrawlState()
	err := c.crawlFrom(ctx, PathReceived, pageSize, st)
	return st.Traces, err
}

// Crawler harvests every relay's data API, as Section 3.3 describes, with
// bounded parallelism and per-relay resume on transient failures.
type Crawler struct {
	Clients []*Client
	// PageSize bounds each request.
	PageSize int
	// Parallelism bounds concurrent relay crawls (default 4). Each relay is
	// crawled by exactly one goroutine, so per-relay request order — and
	// with it any seeded fault injection — stays deterministic.
	Parallelism int
	// Resumes is how many times a failed crawl is resumed from its
	// checkpoint before the harvest is returned partial (default 2).
	Resumes int
	// CheckpointDir, when set, persists each relay/endpoint crawl state to
	// disk (atomic writes) after every attempt. A later Run with the same
	// directory resumes partial harvests from their last page and skips
	// completed ones entirely.
	CheckpointDir string
}

// Harvest is a crawl result for one relay.
type Harvest struct {
	Relay     string
	Delivered []pbs.BidTrace
	Received  []pbs.BidTrace
	// Err is the final error of an incomplete crawl; Partial marks that the
	// trace slices hold only what was harvested before it.
	Err     error
	Partial bool
	// Retries counts this relay's request-level retries; Resumes counts
	// checkpoint resumes after exhausted retries.
	Retries int
	Resumes int
}

func (cr *Crawler) parallelism() int {
	if cr.Parallelism > 0 {
		return cr.Parallelism
	}
	return 4
}

func (cr *Crawler) maxResumes() int {
	if cr.Resumes > 0 {
		return cr.Resumes
	}
	return 2
}

// Run crawls all relays concurrently. Results are index-aligned with
// Clients, so output order is deterministic regardless of scheduling.
func (cr *Crawler) Run(ctx context.Context) []Harvest {
	size := cr.PageSize
	if size <= 0 {
		size = defaultPageLimit
	}
	if cr.CheckpointDir != "" {
		if err := os.MkdirAll(cr.CheckpointDir, 0o755); err != nil {
			out := make([]Harvest, len(cr.Clients))
			for i, cl := range cr.Clients {
				out[i] = Harvest{Relay: cl.Name, Err: err, Partial: true}
			}
			return out
		}
	}
	out := make([]Harvest, len(cr.Clients))
	sem := make(chan struct{}, cr.parallelism())
	var wg sync.WaitGroup
	for i, cl := range cr.Clients {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = cr.harvestOne(ctx, cl, size)
		}(i, cl)
	}
	wg.Wait()
	return out
}

func (cr *Crawler) harvestOne(ctx context.Context, cl *Client, size int) Harvest {
	h := Harvest{Relay: cl.Name}
	before := cl.Retries()
	var st *CrawlState
	st, h.Err = cr.crawlResumed(ctx, cl, PathDelivered, size, &h.Resumes)
	h.Delivered = st.Traces
	if h.Err == nil {
		st, h.Err = cr.crawlResumed(ctx, cl, PathReceived, size, &h.Resumes)
		h.Received = st.Traces
	}
	h.Partial = h.Err != nil
	h.Retries = cl.Retries() - before
	return h
}

// crawlResumed drives one endpoint's crawl, resuming from the checkpoint on
// transient failures. Watchdog errors (stall, page cap) are final: the
// relay is misbehaving, not flaking.
func (cr *Crawler) crawlResumed(ctx context.Context, cl *Client, path string, size int, resumes *int) (*CrawlState, error) {
	st := NewCrawlState()
	ckpt := ""
	if cr.CheckpointDir != "" {
		ckpt = filepath.Join(cr.CheckpointDir, checkpointFileName(cl.Name, path))
		if loaded, err := LoadCrawlState(ckpt); err == nil {
			// A missing or undecodable checkpoint simply starts fresh.
			st = loaded
		}
	}
	save := func() {
		if ckpt != "" {
			_ = st.Save(ckpt)
		}
	}
	var err error
	for attempt := 0; attempt <= cr.maxResumes(); attempt++ {
		if attempt > 0 {
			*resumes++
		}
		err = cl.crawlFrom(ctx, path, size, st)
		save()
		if err == nil {
			return st, nil
		}
		if errors.Is(err, ErrCrawlStalled) || errors.Is(err, ErrTooManyPages) || ctx.Err() != nil {
			break
		}
	}
	return st, err
}
