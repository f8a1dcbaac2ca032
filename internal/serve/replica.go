package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ethpbs/pbslab/internal/backoff"
)

// ReplicaSet runs N full serving planes (store + cache + admission each)
// over one verified output directory, behind a single coordinated-swap
// protocol: a snapshot swap is all-or-nothing across the fleet. Every
// replica independently verifies the candidate (Prepare); only when all of
// them accept the same manifest fingerprint does any of them commit. One
// rejecting replica vetoes the swap for everyone — the whole fleet keeps
// serving the old snapshot, and the rejection is recorded on every replica
// so readiness degrades uniformly. The alternative (each replica swapping
// on its own schedule) would let two replicas serve different fingerprints
// at once, which is exactly the mixed-data window the fingerprint header
// exists to rule out.
type ReplicaSet struct {
	cfg      Config
	seed     uint64
	replicas []*Server

	swapMu sync.Mutex // serializes coordinated swap sequences

	startOnce sync.Once
	startErr  error
	handler   http.Handler
	proxy     *Proxy
	listeners []net.Listener

	pollStop chan struct{}
	pollDone chan struct{}

	httpSrv *http.Server

	drainMu  sync.Mutex
	draining bool
}

// NewReplicaSet builds n replicas of cfg. Each replica owns its own cache
// and admission ladder; per-replica reload polling is disabled (the set
// polls once and swaps everyone through the coordinated protocol). seed
// feeds the proxy's retry jitter.
func NewReplicaSet(cfg Config, n int, seed uint64) *ReplicaSet {
	if n < 1 {
		n = 1
	}
	cfg = cfg.withDefaults()
	rcfg := cfg
	rcfg.ReloadPoll = 0 // the set-level poller coordinates swaps
	rs := &ReplicaSet{
		cfg:      cfg,
		seed:     seed,
		pollStop: make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		rs.replicas = append(rs.replicas, NewServer(rcfg))
	}
	return rs
}

// Replicas exposes the individual serving planes (tests, stats).
func (rs *ReplicaSet) Replicas() []*Server { return rs.replicas }

// Init loads the initial snapshot on every replica through the coordinated
// protocol. Like the single daemon, the set refuses to start on an
// unverifiable directory.
func (rs *ReplicaSet) Init(ctx context.Context) error {
	_, err := rs.CoordinatedReload(ctx, rs.cfg.DataDir)
	return err
}

// CoordinatedReload runs the two-phase swap: every replica prepares
// (verifies) dir in parallel, and only if all of them accept the same
// manifest fingerprint does any replica commit. On any rejection no replica
// swaps: the replicas that verified successfully record the peer's
// rejection, so the whole fleet degrades together and the poller does not
// re-verify the same candidate every tick.
func (rs *ReplicaSet) CoordinatedReload(ctx context.Context, dir string) (*Snapshot, error) {
	rs.swapMu.Lock()
	defer rs.swapMu.Unlock()

	snaps := make([]*Snapshot, len(rs.replicas))
	errs := make([]error, len(rs.replicas))
	var wg sync.WaitGroup
	for i, srv := range rs.replicas {
		wg.Add(1)
		go func(i int, srv *Server) {
			defer wg.Done()
			snaps[i], errs[i] = srv.Store().Prepare(ctx, dir)
		}(i, srv)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			continue
		}
		verr := fmt.Errorf("serve: coordinated swap aborted: replica %d rejected %s: %w", i, dir, err)
		// Prepare already recorded the rejection on the failing replica;
		// record it on the replicas whose own verification passed so the
		// fleet degrades (and dedupes the candidate) uniformly.
		for j, perr := range errs {
			if perr == nil {
				rs.replicas[j].Store().Reject(dir, verr)
			}
		}
		return nil, verr
	}

	fp := snaps[0].ManifestSum
	for i := 1; i < len(snaps); i++ {
		if snaps[i].ManifestSum != fp {
			// Two replicas read different bytes from the same directory: a
			// writer is racing the swap. Nobody commits either version.
			verr := fmt.Errorf("serve: coordinated swap aborted: replicas verified different fingerprints of %s (%.12s vs %.12s) — concurrent writer?",
				dir, fp, snaps[i].ManifestSum)
			for j := range rs.replicas {
				rs.replicas[j].Store().Reject(dir, verr)
			}
			return nil, verr
		}
	}

	var out *Snapshot
	for i, srv := range rs.replicas {
		committed := srv.Store().Commit(snaps[i])
		if out == nil {
			out = committed
		}
	}
	return out, nil
}

// Fingerprint returns the fleet's served manifest fingerprint ("" before
// the first successful swap). Replicas can only diverge mid-commit inside
// CoordinatedReload, so replica 0 is authoritative.
func (rs *ReplicaSet) Fingerprint() string {
	if snap := rs.replicas[0].Store().Current(); snap != nil {
		return snap.ManifestSum
	}
	return ""
}

// Start opens a loopback listener per replica, starts their serving loops,
// and returns the front handler: set-level health, readiness and reload
// endpoints handled locally, everything else forwarded through the
// least-inflight proxy. Safe to call once; Serve calls it implicitly.
func (rs *ReplicaSet) Start() (http.Handler, error) {
	rs.startOnce.Do(func() {
		addrs := make([]string, 0, len(rs.replicas))
		for i, srv := range rs.replicas {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				rs.startErr = fmt.Errorf("serve: replica %d listener: %w", i, err)
				return
			}
			rs.listeners = append(rs.listeners, ln)
			addrs = append(addrs, ln.Addr().String())
			go func(srv *Server, ln net.Listener) { _ = srv.Serve(ln) }(srv, ln)
		}
		rs.proxy = NewProxy(addrs, rs.seed)

		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", rs.handleHealthz)
		mux.HandleFunc("GET /readyz", rs.handleReadyz)
		mux.HandleFunc("POST /admin/reload", rs.handleReload)
		mux.Handle("/", rs.proxy)
		rs.handler = mux

		rs.startPoller()
	})
	return rs.handler, rs.startErr
}

// Proxy exposes the front proxy (stats, retry tuning). Nil before Start.
func (rs *ReplicaSet) Proxy() *Proxy { return rs.proxy }

// Serve starts the replicas and accepts front traffic on l until Drain.
func (rs *ReplicaSet) Serve(l net.Listener) error {
	h, err := rs.Start()
	if err != nil {
		return err
	}
	rs.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: rs.cfg.RequestTimeout,
		ReadTimeout:       2 * rs.cfg.RequestTimeout,
		WriteTimeout:      2 * rs.cfg.RequestTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	err = rs.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// startPoller watches the data dir's manifest fingerprint and runs the
// coordinated swap when it changes; replica 0's store carries the dedup
// state (every abort path records the rejected candidate on all replicas).
func (rs *ReplicaSet) startPoller() {
	if rs.cfg.ReloadPoll <= 0 {
		close(rs.pollDone)
		return
	}
	go func() {
		defer close(rs.pollDone)
		ticker := time.NewTicker(rs.cfg.ReloadPoll)
		defer ticker.Stop()
		for {
			select {
			case <-rs.pollStop:
				return
			case <-ticker.C:
				if rs.replicas[0].Store().ShouldPoll(rs.cfg.DataDir) {
					_, _ = rs.CoordinatedReload(context.Background(), rs.cfg.DataDir)
				}
			}
		}
	}()
}

// handleHealthz aggregates liveness across the fleet plus proxy counters.
func (rs *ReplicaSet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replicas := make([]map[string]any, len(rs.replicas))
	for i, srv := range rs.replicas {
		replicas[i] = map[string]any{
			"admission": srv.adm.Stats(),
			"cache":     srv.CacheStats(),
			"panics":    srv.panics.Load(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"replicas": replicas,
		"proxy":    rs.proxy.Stats(),
	})
}

// handleReadyz is ready only when every replica is serving undegraded —
// the coordinated protocol makes degradation fleet-wide, so one degraded
// replica means the swap pipeline is stuck for everyone.
func (rs *ReplicaSet) handleReadyz(w http.ResponseWriter, r *http.Request) {
	statuses := make([]Status, len(rs.replicas))
	ready := true
	for i, srv := range rs.replicas {
		statuses[i] = srv.Store().Status()
		if !statuses[i].Serving || statuses[i].Degraded {
			ready = false
		}
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":       ready,
		"fingerprint": rs.Fingerprint(),
		"replicas":    statuses,
	})
}

// handleReload is the set-level reload trigger: same request shape as the
// single daemon's, but the swap is coordinated — 422 means no replica
// swapped.
func (rs *ReplicaSet) handleReload(w http.ResponseWriter, r *http.Request) {
	dir := reloadDir(w, r, rs.cfg.MaxBodyBytes, rs.cfg.DataDir)
	snap, err := rs.CoordinatedReload(r.Context(), dir)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"swapped": false,
			"dir":     dir,
			"error":   err.Error(),
			"store":   rs.replicas[0].Store().Status(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"swapped":     true,
		"dir":         dir,
		"generation":  snap.Generation,
		"fingerprint": snap.ManifestSum,
		"replicas":    len(rs.replicas),
	})
}

// Drain stops the poller, closes the front listener, then drains every
// replica in parallel.
func (rs *ReplicaSet) Drain(ctx context.Context) error {
	rs.drainMu.Lock()
	if rs.draining {
		rs.drainMu.Unlock()
		return nil
	}
	rs.draining = true
	rs.drainMu.Unlock()

	select {
	case <-rs.pollStop:
	default:
		close(rs.pollStop)
	}
	rs.startOnce.Do(func() { close(rs.pollDone) }) // Start never ran
	<-rs.pollDone

	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rs.cfg.DrainTimeout)
		defer cancel()
	}
	var firstErr error
	if rs.httpSrv != nil {
		if err := rs.httpSrv.Shutdown(ctx); err != nil {
			firstErr = fmt.Errorf("serve: drain front: %w", err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(rs.replicas))
	for i, srv := range rs.replicas {
		wg.Add(1)
		go func(i int, srv *Server) {
			defer wg.Done()
			errs[i] = srv.Drain(ctx)
		}(i, srv)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- proxy ---

// proxyTarget is one downstream replica with a live inflight gauge.
type proxyTarget struct {
	index    int
	addr     string
	inflight atomic.Int64
	served   atomic.Uint64
}

// Proxy is the fleet's front door: a least-inflight HTTP forwarder. Each
// request goes to the replica with the fewest requests currently in flight
// through this proxy; a shed (429/503) or unreachable replica is retried on
// the next-least-loaded one, and only when a whole sweep of the fleet sheds
// does the proxy wait — using the shared backoff policy, never shorter than
// the largest Retry-After the replicas hinted — before sweeping again.
// After the last sweep the final shed response is relayed to the client,
// hint intact, so a client of the fleet behaves exactly like a client of
// one overloaded daemon.
type Proxy struct {
	// Retry is the between-sweep backoff policy.
	Retry backoff.Policy
	// Sweeps is how many passes over the fleet a request gets (default 3).
	Sweeps int

	targets []*proxyTarget
	client  *http.Client
	jitter  *backoff.Jitter

	forwarded     atomic.Uint64 // responses relayed from a healthy replica
	retried       atomic.Uint64 // shed or failed attempts that moved on
	transportErrs atomic.Uint64
	allShed       atomic.Uint64 // requests that exhausted every sweep
}

// NewProxy builds a proxy over replica addresses. seed derives the retry
// jitter stream (one stream per proxy, shared across request goroutines).
func NewProxy(addrs []string, seed uint64) *Proxy {
	p := &Proxy{
		Retry:  backoff.Policy{Base: 25 * time.Millisecond, Max: time.Second},
		Sweeps: 3,
		jitter: backoff.NewJitter(seed, "serve/proxy/retry"),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for i, addr := range addrs {
		p.targets = append(p.targets, &proxyTarget{index: i, addr: addr})
	}
	return p
}

// ProxyStats is the proxy's counter snapshot, surfaced by the set /healthz.
type ProxyStats struct {
	Forwarded       uint64            `json:"forwarded"`
	Retried         uint64            `json:"retried"`
	TransportErrors uint64            `json:"transport_errors"`
	AllShed         uint64            `json:"all_shed"`
	Targets         []ProxyTargetStat `json:"targets"`
}

// ProxyTargetStat is one replica's share of the proxy's traffic.
type ProxyTargetStat struct {
	Addr     string `json:"addr"`
	Inflight int64  `json:"inflight"`
	Served   uint64 `json:"served"`
}

// Stats snapshots the proxy counters.
func (p *Proxy) Stats() ProxyStats {
	s := ProxyStats{
		Forwarded:       p.forwarded.Load(),
		Retried:         p.retried.Load(),
		TransportErrors: p.transportErrs.Load(),
		AllShed:         p.allShed.Load(),
	}
	for _, t := range p.targets {
		s.Targets = append(s.Targets, ProxyTargetStat{
			Addr: t.addr, Inflight: t.inflight.Load(), Served: t.served.Load(),
		})
	}
	return s
}

// order returns targets sorted by ascending inflight count — the sweep
// order for one attempt round. Stable sort keeps index order among ties so
// an idle fleet round-robins deterministically per sweep.
func (p *Proxy) order() []*proxyTarget {
	out := make([]*proxyTarget, len(p.targets))
	copy(out, p.targets)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].inflight.Load() < out[j].inflight.Load()
	})
	return out
}

// shedResp is a buffered shed (429/503) response, kept so the final sweep's
// rejection can be relayed to the client after its body was already closed.
type shedResp struct {
	status int
	header http.Header
	body   []byte
}

// ServeHTTP forwards one request. Within a sweep, shed and unreachable
// replicas are skipped over immediately (another replica may have capacity
// right now); only between sweeps does the request wait, per the backoff
// policy and the largest downstream Retry-After hint seen so far.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var reqBody []byte
	if r.Body != nil && r.ContentLength != 0 {
		b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "Bad Request", "reason": "unreadable body"})
			return
		}
		reqBody = b
	}

	sweeps := p.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	var lastShed *shedResp
	var maxRetryAfter time.Duration
	for sweep := 1; sweep <= sweeps; sweep++ {
		for _, t := range p.order() {
			done, shed, err := p.attempt(w, r, t, reqBody)
			if done {
				p.forwarded.Add(1)
				return
			}
			p.retried.Add(1)
			if err != nil {
				p.transportErrs.Add(1)
				continue
			}
			lastShed = shed
			if ra := retryAfterHint(shed.header); ra > maxRetryAfter {
				maxRetryAfter = ra
			}
		}
		if sweep < sweeps {
			delay := p.Retry.Delay(sweep, maxRetryAfter, p.jitter)
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error": "Service Unavailable", "reason": "client cancelled during retry backoff",
				})
				return
			}
		}
	}
	p.allShed.Add(1)
	if lastShed != nil {
		// Relay the fleet's own rejection, Retry-After hint intact.
		h := w.Header()
		for k, vs := range lastShed.header {
			h[k] = vs
		}
		w.WriteHeader(lastShed.status)
		_, _ = w.Write(lastShed.body)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusBadGateway, map[string]any{
		"error": "Bad Gateway", "reason": "no replica reachable",
	})
}

// attempt forwards the request to one replica. A 2xx/3xx/4xx (other than
// 429) response is relayed and ends the request; 429/503 is buffered as a
// shed; a transport error returns err. The inflight gauge covers the whole
// attempt including the relay, so least-inflight ordering sees requests
// that are still streaming their response.
func (p *Proxy) attempt(w http.ResponseWriter, r *http.Request, t *proxyTarget, reqBody []byte) (done bool, shed *shedResp, err error) {
	t.inflight.Add(1)
	defer t.inflight.Add(-1)

	var bodyReader io.Reader
	if reqBody != nil {
		bodyReader = bytes.NewReader(reqBody)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+t.addr+r.URL.RequestURI(), bodyReader)
	if err != nil {
		return false, nil, err
	}
	out.Header = r.Header.Clone()
	out.Header.Del("Connection")
	resp, err := p.client.Do(out)
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return false, &shedResp{status: resp.StatusCode, header: resp.Header.Clone(), body: body}, nil
	}

	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set("X-Pbslab-Replica", strconv.Itoa(t.index))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	t.served.Add(1)
	return true, nil, nil
}

// retryAfterHint parses a Retry-After seconds header, 0 when absent.
func retryAfterHint(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
