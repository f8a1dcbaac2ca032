package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
)

// Config tunes the daemon. The zero value is usable: every limit falls back
// to the default documented on its field.
type Config struct {
	// DataDir is the verified output directory to serve (and the default
	// reload candidate).
	DataDir string
	// MaxInflight bounds concurrently executing requests (default 64).
	MaxInflight int
	// Queue bounds requests waiting for an execution slot (default 64).
	Queue int
	// QueueWait bounds how long a queued request may wait (default 1s).
	QueueWait time.Duration
	// RequestTimeout bounds one admitted request end to end (default 10s).
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint attached to shed responses
	// (default 1s).
	RetryAfter time.Duration
	// ReloadPoll makes the daemon watch DataDir's manifest and hot-swap
	// when it changes (0 = manual reloads only). No fsnotify: a plain
	// fingerprint poll works on every filesystem a run can write to.
	ReloadPoll time.Duration
	// Workers bounds the analysis pool used when loading snapshots
	// (0 = all CPUs).
	Workers int
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// CacheBytes bounds the response cache's total byte budget
	// (default 64 MiB; negative disables caching — every request then
	// recomputes its response, the control arm of the sustained-load
	// benchmark).
	CacheBytes int64
	// CacheShards splits the cache into independently locked shards
	// (default 16).
	CacheShards int
	// CacheFillHook, when non-nil, intercepts every cache fill before the
	// response is computed — the injection point the cache chaos suite
	// uses (see faults.CacheChaos).
	CacheFillHook FillHook
	// AdminSecret, when non-empty, gates POST /admin/reload behind the
	// shared-secret HMAC authenticator (see auth.go). Empty leaves the
	// admin plane open — acceptable only on loopback deployments.
	AdminSecret []byte
}

// maxBodyBytes caps the admin plane's request bodies and every body an
// Authenticator's middleware reads to check a signature.
const maxBodyBytes = 1 << 20

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	return c
}

// Server is the pbslabd serving plane: snapshot store, admission
// controller, handler set, and lifecycle (poller + drain).
type Server struct {
	cfg     Config
	store   *Store
	adm     *Admission
	cache   *Cache
	handler http.Handler

	httpSrv *http.Server

	panics atomic.Uint64

	pollOnce sync.Once
	pollStop chan struct{}
	pollDone chan struct{}

	drainMu  sync.Mutex
	draining bool
}

// NewServer builds a server for cfg. No snapshot is loaded and no socket is
// opened yet; call Init, then Serve (or use Handler in tests).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		store:    NewStore(LoadOptions{Workers: cfg.Workers}),
		adm:      NewAdmission(cfg.MaxInflight, cfg.Queue, cfg.QueueWait, cfg.RetryAfter),
		pollStop: make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	budget := cfg.CacheBytes
	if budget < 0 {
		budget = 0 // newCache treats a non-positive budget as disabled
	}
	s.cache = newCache(budget, cfg.CacheShards, cfg.CacheFillHook)
	// Any snapshot swap purges the whole cache: old-fingerprint entries are
	// unreachable by key already, but their memory must not outlive the
	// snapshot backing them.
	s.store.SetOnSwap(func(*Snapshot) { s.cache.Purge() })
	s.handler = s.buildHandler()
	return s
}

// CacheStats exposes the response-cache counters (tests, benchmarks).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Store exposes the snapshot store (reload triggers, status).
func (s *Server) Store() *Store { return s.store }

// Init loads the initial snapshot from DataDir. The daemon refuses to start
// on an unverifiable directory: serving nothing beats serving garbage.
func (s *Server) Init(ctx context.Context) error {
	_, err := s.store.Reload(ctx, s.cfg.DataDir)
	return err
}

// Handler returns the full middleware chain, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// buildHandler assembles the ladder. Order, outermost first:
//
//	recover -> (health bypass | admission -> timeout -> mux)
//
// Health probes bypass admission on purpose: an overloaded daemon must
// still answer its orchestrator, and the probes do constant work.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/meta", s.handleMeta)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /api/v1/artifacts", s.handleArtifactList)
	// {name...}: chunked corpus segments live under dataset/, so artifact
	// names can span path segments.
	mux.HandleFunc("GET /artifacts/{name...}", s.handleArtifact)
	mux.HandleFunc("GET /api/v1/figures", s.handleFigureList)
	mux.HandleFunc("GET /api/v1/figure/{key}", s.handleFigure)
	mux.HandleFunc("GET /api/v1/day/{day}", s.handleDay)
	var reload http.Handler = http.HandlerFunc(s.handleReload)
	if len(s.cfg.AdminSecret) > 0 {
		auth := NewAuthenticator(s.cfg.AdminSecret)
		reload = auth.Middleware(reload)
	}
	mux.Handle("POST /admin/reload", reload)

	admitted := s.adm.Wrap(http.TimeoutHandler(mux, s.cfg.RequestTimeout,
		`{"error":"Service Unavailable","reason":"request timeout"}`))

	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", s.handleHealthz)
	outer.HandleFunc("GET /readyz", s.handleReadyz)
	outer.Handle("/", admitted)

	return s.recoverWrap(outer)
}

// recoverWrap is Recover with the server's panic counter attached.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return Recover(next, func() { s.panics.Add(1) })
}

// Recover converts a handler panic into that request's 500 and an onPanic
// callback, keeping the process (and every other in-flight request) alive.
// http.ErrAbortHandler passes through: it is the sanctioned way to abort a
// connection and net/http handles it quietly. Exported so pbsagent's
// dispatch plane shares the same containment behaviour as pbslabd.
func Recover(next http.Handler, onPanic func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			if onPanic != nil {
				onPanic()
			}
			// Headers may already be out; this is best-effort.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, `{"error":"Internal Server Error","reason":%q}`+"\n", fmt.Sprint(rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// --- handlers ---

// FingerprintHeader tags every snapshot-derived response with the manifest
// fingerprint of the snapshot that produced it. The reload-under-load chaos
// suite uses it to prove no response ever mixes data from two snapshots.
const FingerprintHeader = "X-Pbslab-Fingerprint"

var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalJSON renders v as indented JSON through a pooled buffer and
// returns a copy of the bytes. Encoding before any status line is written
// is what turns a failed marshal into a clean 500 instead of a torn 200
// body — and what gives the cache layer reusable response bytes.
func marshalJSON(v any) ([]byte, error) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); jsonBufPool.Put(buf) }()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalJSON(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":"Internal Server Error","reason":%q}`+"\n", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeEntry serves one precomputed response: headers, the strong-ETag 304
// fast path, then the body in a single Write.
func writeEntry(w http.ResponseWriter, r *http.Request, e *cacheEntry) {
	h := w.Header()
	h.Set("Content-Type", e.contentType)
	h.Set("ETag", e.etag)
	h.Set(FingerprintHeader, e.fingerprint)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, e.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
}

// serveCachedJSON resolves one immutable-per-snapshot JSON route through
// the response cache: a hit is a memcpy, a miss runs build exactly once
// under singleflight no matter how many requests pile onto the key.
func (s *Server) serveCachedJSON(w http.ResponseWriter, r *http.Request, snap *Snapshot, route string, build func() (any, error)) {
	entry, _, err := s.cache.GetOrFill(r.Context(), snap.ManifestSum, route, func() (*cacheEntry, error) {
		v, err := build()
		if err != nil {
			return nil, err
		}
		body, err := marshalJSON(v)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{
			fingerprint: snap.ManifestSum,
			route:       route,
			contentType: "application/json",
			etag:        etagFor(snap.ManifestSum, route),
			body:        body,
		}, nil
	})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": "Internal Server Error", "reason": err.Error(),
		})
		return
	}
	writeEntry(w, r, entry)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"admission": s.adm.Stats(),
		"cache":     s.cache.Stats(),
		"panics":    s.panics.Load(),
	})
}

// handleReadyz reports readiness. Degraded-but-serving (a rejected reload
// with an older snapshot still installed) answers 503 so an orchestrator
// can rotate traffic away, while the body makes clear the daemon is still
// answering from the last good snapshot.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.store.Status()
	status := http.StatusOK
	if !st.Serving || st.Degraded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready": status == http.StatusOK,
		"store": st,
	})
}

// handleMeta serves snapshot provenance. The body is immutable per
// snapshot and cached; the volatile store/admission counters live on
// /api/v1/stats and /readyz, which are never cached.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no snapshot loaded"})
		return
	}
	s.serveCachedJSON(w, r, snap, "meta", func() (any, error) {
		meta := map[string]any{
			"dir":          snap.Dir,
			"generation":   snap.Generation,
			"manifest_sum": snap.ManifestSum,
			"artifacts":    len(snap.Manifest.Artifacts),
			"has_dataset":  snap.HasDataset(),
		}
		if snap.HasDataset() {
			start, days := snap.Analysis.Window()
			meta["window_start"] = start.UTC().Format("2006-01-02")
			meta["window_days"] = days
			meta["counts"] = snap.Counts
		}
		return meta, nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"admission": s.adm.Stats(),
		"cache":     s.cache.Stats(),
		"panics":    s.panics.Load(),
		"store":     s.store.Status(),
	})
}

func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no snapshot loaded"})
		return
	}
	s.serveCachedJSON(w, r, snap, "artifacts", func() (any, error) {
		return map[string]any{
			"generation": snap.Generation,
			"artifacts":  snap.Manifest.Artifacts,
		}, nil
	})
}

// artifactContentType maps an artifact name to its media type.
func artifactContentType(name string) string {
	switch path.Ext(name) {
	case ".csv":
		return "text/csv; charset=utf-8"
	case ".gob", ".seg":
		return "application/octet-stream"
	case ".json":
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleArtifact serves raw artifact bytes, byte-identical to disk, with
// the manifest digest as a strong ETag. Bytes resolve through the response
// cache: in-memory artifacts cost one map hit to fill, and lazily served
// corpus segments have their disk read + digest re-check amortized to once
// per snapshot entry (per refill after eviction) instead of once per
// request.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no snapshot loaded"})
		return
	}
	name := r.PathValue("name")
	// Existence is checked against the manifest index before any fill, so
	// unknown names 404 without ever occupying cache or singleflight state.
	meta, ok := snap.Entry(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown artifact", "name": name})
		return
	}
	route := "artifact/" + name
	entry, _, err := s.cache.GetOrFill(r.Context(), snap.ManifestSum, route, func() (*cacheEntry, error) {
		data, _, ok := snap.Artifact(name)
		if !ok {
			// Manifest-listed but unreadable or digest-mismatched on disk
			// (torn writer on a lazy segment): a miss, never wrong bytes.
			return nil, fmt.Errorf("artifact %s failed digest verification", name)
		}
		return &cacheEntry{
			fingerprint: snap.ManifestSum,
			route:       route,
			contentType: artifactContentType(name),
			// Content-addressed ETag: unchanged bytes stay 304-able across
			// snapshot swaps and daemon restarts.
			etag: `"` + meta.SHA256 + `"`,
			body: data,
		}, nil
	})
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "artifact unavailable", "name": name, "reason": err.Error(),
		})
		return
	}
	writeEntry(w, r, entry)
}

// datasetSnap returns the snapshot if it can answer index queries, or
// writes the appropriate error.
func (s *Server) datasetSnap(w http.ResponseWriter) *Snapshot {
	snap := s.store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no snapshot loaded"})
		return nil
	}
	if !snap.HasDataset() {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "snapshot has no dataset; regenerate the directory with pbslab -figures DIR -dump-dataset",
		})
		return nil
	}
	return snap
}

func (s *Server) handleFigureList(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no snapshot loaded"})
		return
	}
	s.serveCachedJSON(w, r, snap, "figures", func() (any, error) {
		return map[string]any{
			"has_dataset": snap.HasDataset(),
			"figures":     snap.figureItems,
		}, nil
	})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	snap := s.datasetSnap(w)
	if snap == nil {
		return
	}
	key := r.PathValue("key")
	i := slices.IndexFunc(core.DayFigures, func(f core.DayFigure) bool { return f.Key == key })
	if i < 0 {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown figure", "key": key})
		return
	}
	f := core.DayFigures[i]
	s.serveCachedJSON(w, r, snap, "figure/"+key, func() (any, error) {
		series := f.Series(snap.Analysis)
		out := make(map[string]seriesJSON, len(series))
		for name, ser := range series {
			out[name] = toSeriesJSON(ser)
		}
		return map[string]any{
			"key":        f.Key,
			"title":      f.Title,
			"generation": snap.Generation,
			"series":     out,
		}, nil
	})
}

// handleDay is the per-day index query: every figure's value on one day,
// one JSON object — the read path a dashboard polls (and, being immutable
// per snapshot, the cache's best customer).
func (s *Server) handleDay(w http.ResponseWriter, r *http.Request) {
	snap := s.datasetSnap(w)
	if snap == nil {
		return
	}
	day, err := strconv.Atoi(r.PathValue("day"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "day must be an integer"})
		return
	}
	_, days := snap.Analysis.Window()
	if day < 0 || day >= days {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "day out of window", "day": day, "window_days": days,
		})
		return
	}
	s.serveCachedJSON(w, r, snap, "day/"+strconv.Itoa(day), func() (any, error) {
		figures := make(map[string]map[string]*float64, len(core.DayFigures))
		for _, f := range core.DayFigures {
			series := f.Series(snap.Analysis)
			vals := make(map[string]*float64, len(series))
			for name, ser := range series {
				vals[name] = pointJSON(ser, day)
			}
			figures[f.Key] = vals
		}
		return map[string]any{
			"day":        day,
			"generation": snap.Generation,
			"figures":    figures,
		}, nil
	})
}

// reloadDir extracts the reload candidate directory from a reload request:
// ?dir= wins, then a JSON body {"dir": "..."}, else the configured default.
// An empty or non-JSON body means "default dir"; a too-large or drip-fed
// body is bounded by MaxBytesReader + the request timeout.
func reloadDir(w http.ResponseWriter, r *http.Request, def string) string {
	dir := r.URL.Query().Get("dir")
	if dir == "" && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		var body struct {
			Dir string `json:"dir"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err == nil {
			dir = body.Dir
		}
	}
	if dir == "" {
		dir = def
	}
	return dir
}

// handleReload verifies a candidate directory and hot-swaps it in. The
// candidate defaults to the configured data dir; ?dir= or a JSON body
// {"dir": "..."} selects another. Rejection leaves the old snapshot
// serving and answers 422 with the verification failure.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	dir := reloadDir(w, r, s.cfg.DataDir)
	snap, err := s.store.Reload(r.Context(), dir)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"swapped": false,
			"dir":     dir,
			"error":   err.Error(),
			"store":   s.store.Status(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"swapped":    true,
		"dir":        dir,
		"generation": snap.Generation,
		"artifacts":  len(snap.Manifest.Artifacts),
	})
}

// --- lifecycle ---

// Serve starts accepting on l and blocks until Drain (returns nil) or a
// listener error. Slow-loris TCP behaviour is bounded at the server level:
// header reads, whole-request reads and response writes all carry
// deadlines derived from the request timeout.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: s.cfg.RequestTimeout,
		ReadTimeout:       2 * s.cfg.RequestTimeout,
		WriteTimeout:      2 * s.cfg.RequestTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	s.startPoller()
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// startPoller begins manifest-fingerprint polling when configured.
func (s *Server) startPoller() {
	s.pollOnce.Do(func() {
		if s.cfg.ReloadPoll <= 0 {
			close(s.pollDone)
			return
		}
		go func() {
			defer close(s.pollDone)
			ticker := time.NewTicker(s.cfg.ReloadPoll)
			defer ticker.Stop()
			for {
				select {
				case <-s.pollStop:
					return
				case <-ticker.C:
					if s.store.ShouldPoll(s.cfg.DataDir) {
						// Rejections are recorded in store status; the
						// poller itself never crashes the daemon.
						_, _ = s.store.Reload(context.Background(), s.cfg.DataDir)
					}
				}
			}
		}()
	})
}

// Drain gracefully shuts the daemon down: the poller stops, the listener
// closes (no new connections), in-flight requests run to completion, and
// only then does Drain return. The error is non-nil when the deadline
// expired with work still in flight — i.e. the drain was not clean.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return nil
	}
	s.draining = true
	s.drainMu.Unlock()

	select {
	case <-s.pollStop:
	default:
		close(s.pollStop)
	}
	s.startPoller() // ensure pollDone closes even if Serve never ran
	<-s.pollDone

	if s.httpSrv != nil {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
			defer cancel()
		}
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("serve: drain: %w", err)
		}
	}
	if !s.adm.DrainWait(s.cfg.DrainTimeout) {
		return errors.New("serve: drain: in-flight requests outlived the drain timeout")
	}
	return nil
}
