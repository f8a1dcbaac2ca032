// Command pbslabd serves a verified pbslab output directory over HTTP: raw
// artifact downloads, per-figure series, and per-day analysis-index
// queries, with admission control, load shedding, panic isolation,
// verified hot-swap reloads, and a fingerprint-keyed response cache
// (see internal/serve and DESIGN.md §9, §13).
//
// Usage:
//
//	pbslabd -data DIR [-addr HOST:PORT] [-max-inflight N] [-queue N]
//	        [-queue-wait D] [-request-timeout D] [-retry-after D]
//	        [-reload-poll D] [-workers N] [-drain-timeout D]
//	        [-cache-mb N] [-admin-secret-file F]
//
// The data directory must verify clean against its manifest (pbslab
// -figures DIR writes one; add -dump-dataset to enable index queries).
// On SIGINT/SIGTERM the daemon drains gracefully — it stops accepting,
// finishes every in-flight request, then exits 130, the same interrupted-run
// convention pbslab itself uses.
//
// -cache-mb budgets the response cache (default 64 MiB, 0 disables it).
// To scale out, run several pbslabd processes behind any load balancer:
// each verifies its own directory and tags every response with
// X-Pbslab-Fingerprint.
//
// Endpoints:
//
//	GET  /healthz              liveness + admission/cache counters
//	GET  /readyz               readiness; 503 when degraded or empty
//	GET  /api/v1/meta          snapshot provenance and window
//	GET  /api/v1/stats         admission ledger, cache, panics, store status
//	GET  /api/v1/artifacts     manifest inventory
//	GET  /artifacts/{name}     raw artifact bytes (ETag = manifest SHA-256)
//	GET  /api/v1/figures       available per-day figure queries
//	GET  /api/v1/figure/{key}  one figure's day-indexed series
//	GET  /api/v1/day/{day}     every figure's value on one day
//	POST /admin/reload         verify + hot-swap a candidate directory
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ethpbs/pbslab/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	data := flag.String("data", "", "verified output directory to serve (required)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently executing requests")
	queue := flag.Int("queue", 64, "max requests waiting for a slot before 429s")
	queueWait := flag.Duration("queue-wait", time.Second, "max time a queued request may wait before a 503")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	reloadPoll := flag.Duration("reload-poll", 0, "poll the data dir's manifest and hot-swap on change (0 = manual reloads only)")
	workers := flag.Int("workers", 0, "analysis worker pool for snapshot loads (0 = all CPUs)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight requests on shutdown")
	cacheMB := flag.Int("cache-mb", 64, "response cache byte budget in MiB (0 = disable caching)")
	adminSecretFile := flag.String("admin-secret-file", "", "shared-secret file; POST /admin/reload then requires its HMAC signature")
	flag.Parse()

	if *data == "" {
		fmt.Fprintln(os.Stderr, "pbslabd: -data DIR is required")
		flag.Usage()
		return 2
	}
	var adminSecret []byte
	if *adminSecretFile != "" {
		var err error
		if adminSecret, err = serve.LoadSecretFile(*adminSecretFile); err != nil {
			fmt.Fprintf(os.Stderr, "pbslabd: %v\n", err)
			return 2
		}
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // negative disables the cache
	}
	cfg := serve.Config{
		DataDir:        *data,
		MaxInflight:    *maxInflight,
		Queue:          *queue,
		QueueWait:      *queueWait,
		RequestTimeout: *requestTimeout,
		RetryAfter:     *retryAfter,
		ReloadPoll:     *reloadPoll,
		Workers:        *workers,
		DrainTimeout:   *drainTimeout,
		CacheBytes:     cacheBytes,
		AdminSecret:    adminSecret,
	}

	s := serve.NewServer(cfg)
	if err := s.Init(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "pbslabd: %v\n", err)
		return 1
	}
	snap := s.Store().Current()
	fmt.Fprintf(os.Stderr, "pbslabd: serving %s (%d artifacts, dataset=%v) on %s\n",
		snap.Dir, len(snap.Manifest.Artifacts), snap.HasDataset(), *addr)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbslabd: %v\n", err)
		return 1
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	// Block until a termination signal (drain, exit 130) or a serve error
	// (exit 1).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "pbslabd: %s received, draining...\n", sig)
		if err := s.Drain(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "pbslabd: %v\n", err)
			return 1
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintf(os.Stderr, "pbslabd: %v\n", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "pbslabd: drained cleanly, no in-flight requests lost")
		return 130
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "pbslabd: %v\n", err)
		return 1
	}
}
