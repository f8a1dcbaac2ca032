package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/ethpbs/pbslab/internal/report"
)

// Store holds the currently served Snapshot behind an atomic pointer and
// mediates hot swaps. Readers (every request) pay one atomic load; writers
// (reloads) serialize on a mutex, build the complete candidate off to the
// side, and only then publish it. A failed reload changes nothing except
// the degradation status — the old snapshot keeps serving.
type Store struct {
	cur atomic.Pointer[Snapshot]

	reloadMu sync.Mutex // serializes reloads, so two cannot swap out of order

	mu          sync.Mutex // guards the fields below
	gen         uint64
	lastErr     error  // most recent reload rejection (nil when healthy)
	lastErrDir  string // directory that was rejected
	rejectedSum string // manifest fingerprint of the rejected candidate
	swaps       uint64 // successful reloads, including the initial load
	rejects     uint64

	// onSwap is invoked after every successful swap with the snapshot just
	// installed; the server uses it to purge the response cache.
	onSwap func(*Snapshot)

	loadOpts LoadOptions
}

// NewStore returns an empty store; Reload installs the first snapshot.
func NewStore(opts LoadOptions) *Store {
	return &Store{loadOpts: opts}
}

// Current returns the served snapshot, or nil before the first successful
// load. The returned snapshot is immutable and remains valid (and
// consistent) for the full lifetime of a request even if a swap lands
// mid-request.
func (st *Store) Current() *Snapshot {
	return st.cur.Load()
}

// SetOnSwap registers a hook called after every successful swap with the
// newly installed snapshot. Must be set before the store starts serving.
func (st *Store) SetOnSwap(fn func(*Snapshot)) { st.onSwap = fn }

// Reload loads dir as a candidate snapshot and, only if every verification
// rung passes, atomically swaps it in. On rejection the previous snapshot
// keeps serving and the failure is recorded for /readyz and /api/v1/stats;
// the candidate's fingerprint is remembered so the poller does not
// re-verify it every tick. A load cut short because ctx ended (a client
// hang-up, a request timeout) judged nothing, so it is returned without
// being recorded.
func (st *Store) Reload(ctx context.Context, dir string) (*Snapshot, error) {
	st.reloadMu.Lock()
	defer st.reloadMu.Unlock()

	snap, err := Load(ctx, dir, st.loadOpts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		sum := manifestFingerprint(dir)
		st.mu.Lock()
		st.rejects++
		st.lastErr = err
		st.lastErrDir = dir
		st.rejectedSum = sum
		st.mu.Unlock()
		return nil, err
	}

	st.mu.Lock()
	st.gen++
	snap.Generation = st.gen
	st.swaps++
	st.lastErr = nil
	st.lastErrDir = ""
	st.rejectedSum = ""
	st.cur.Store(snap)
	onSwap := st.onSwap
	st.mu.Unlock()
	if onSwap != nil {
		onSwap(snap)
	}
	return snap, nil
}

// Status is the store's health summary, surfaced by /readyz and /api/v1/stats.
type Status struct {
	// Serving is true once any snapshot has been installed.
	Serving bool `json:"serving"`
	// Generation counts successful swaps; 0 means nothing loaded yet.
	Generation uint64 `json:"generation"`
	// Degraded is true when the most recent reload attempt was rejected:
	// the daemon still serves the previous snapshot, but its data may be
	// behind what is on disk.
	Degraded  bool   `json:"degraded"`
	LastError string `json:"last_error,omitempty"`
	ErrorDir  string `json:"error_dir,omitempty"`
	Swaps     uint64 `json:"swaps"`
	Rejects   uint64 `json:"rejects"`
}

// Status reports the store's current health.
func (st *Store) Status() Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Status{
		Serving:    st.cur.Load() != nil,
		Generation: st.gen,
		Degraded:   st.lastErr != nil,
		Swaps:      st.swaps,
		Rejects:    st.rejects,
	}
	if st.lastErr != nil {
		s.LastError = st.lastErr.Error()
		s.ErrorDir = st.lastErrDir
	}
	return s
}

// ShouldPoll reports whether a poll tick against dir warrants a reload
// attempt: the directory's manifest fingerprint differs from the served
// snapshot's, and is not the fingerprint of a candidate already rejected
// (so a persistently corrupt directory is not re-verified every tick —
// only a changed one).
func (st *Store) ShouldPoll(dir string) bool {
	sum := manifestFingerprint(dir)
	if sum == "" {
		return false // no manifest: nothing to load yet
	}
	st.mu.Lock()
	rejected := st.rejectedSum
	st.mu.Unlock()
	if sum == rejected {
		return false
	}
	cur := st.Current()
	return cur == nil || cur.ManifestSum != sum
}

// manifestFingerprint hashes dir's manifest file, "" when unreadable.
func manifestFingerprint(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, report.ManifestName))
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
