// Package serve is pbslab's serving plane: a long-running HTTP daemon
// (cmd/pbslabd) that answers artifact downloads and per-day analysis-index
// queries from a verified output directory, and stays correct under
// overload, handler panics, slow clients, corrupt reload candidates, and
// graceful shutdown.
//
// Robustness is structured as a degradation ladder (DESIGN.md §9):
//
//  1. Admission control — at most MaxInflight requests execute; up to
//     Queue more wait, deadline-aware. Overflow is shed immediately with
//     429 + Retry-After; a queue-wait timeout sheds with 503 + Retry-After
//     (the same contract relayapi.Client honours on the client side).
//  2. Per-request bounds — every admitted request runs under a timeout,
//     and request bodies are size-capped.
//  3. Panic isolation — a handler panic becomes that request's 500, never
//     a process death.
//  4. Snapshot integrity — the daemon only ever serves from an immutable,
//     fully verified Snapshot; reloads build and verify a complete
//     candidate before an atomic pointer swap, so a corrupt or
//     half-written directory can degrade readiness but never the data on
//     the wire.
//  5. Graceful drain — shutdown stops accepting, lets in-flight requests
//     finish (bounded), and reports a clean exit.
//
// A directory's corpus (internal/dsio day segments under dataset/) is
// loaded by streaming — validation and the analysis index build hold one
// day at a time — and its segments are served lazily: the manifest entry
// is verified at load, the bytes are read per request and re-checked
// against the manifest digest, so a large corpus never has to fit in the
// snapshot's memory. A directory that still ships the retired single-blob
// dataset.gob is refused.
//
// On top of the snapshot sits the sustained-load tier (DESIGN.md §13).
// Every cacheable route resolves through Cache, a sharded byte-budgeted
// LRU keyed by (snapshot manifest fingerprint, route): answers are
// immutable per snapshot, so hits are a memcpy with a strong ETag and a
// 304 fast path, misses collapse into one singleflight fill that a
// client disconnect cannot cancel or poison, and every swap purges the
// keyspace so a pre-swap ETag never produces a stale 304. ReplicaSet
// runs N Servers over one verified directory with coordinated hot-swap
// — all replicas verify a candidate before any swaps, one rejection
// vetoes fleet-wide — fronted by a least-inflight Proxy that retries
// shed responses with internal/backoff, honouring Retry-After.
package serve
