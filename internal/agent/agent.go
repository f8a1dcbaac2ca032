// Package agent is the server side of the fleet's multi-host dispatch
// plane: a thin HTTP worker agent (cmd/pbsagent) that accepts cell
// assignments from a pbsfleet coordinator, runs them as crash-isolated
// subprocesses via the same worker protocol the local transport uses,
// streams heartbeats back over a watch stream, and serves the finished
// artifacts for digest-verified download.
//
// The agent is deliberately dumb about fleet semantics: it holds no
// coordinator address, initiates nothing, and keeps exactly one fact per
// cell beyond its current run — the highest epoch it has ever seen. That
// floor is the partition-tolerance mechanism: a coordinator attempt that
// was reclaimed during a partition and reconnects later carries a stale
// epoch, and every request below the floor is fenced with 409, so a
// zombie attempt can neither restart work nor surface results the
// coordinator has moved past. Within an epoch, requests are idempotent:
// re-POSTing a running (or finished) assignment joins it, so duplicate
// deliveries and coordinator restarts never fork a second worker.
//
// Admission reuses internal/serve's degradation machinery: a bounded
// number of concurrent runs, 429/503 + Retry-After when full or
// draining, graceful drain on shutdown, and panic recovery around every
// handler.
package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/fleet"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/serve"
)

// Config tunes one agent.
type Config struct {
	// Executable is the worker binary (default: this binary, whose main
	// must call fleet.MaybeWorker first).
	Executable string
	// Scratch is the agent's working directory: per-run artifact staging
	// under runs/, persistent per-cell checkpoints under checkpoints/.
	Scratch string
	// Capacity is the number of concurrent cell runs (default 2).
	Capacity int
	// RetryAfter is the hint sent with 429/503 sheds (default 1s).
	RetryAfter time.Duration
	// DrainTimeout bounds how long Drain waits for running cells
	// (default 30s).
	DrainTimeout time.Duration
	// Secret, when set, requires every API request (everything except
	// /healthz) to carry the fleet's HMAC signature, and scrubs the secret
	// from every free-text reply field (Cause, StderrTail) so a worker
	// error that echoes its environment cannot leak it over the wire.
	Secret []byte
	// Log receives progress lines (default: discard).
	Log io.Writer
}

func (c *Config) fill() error {
	if c.Executable == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("agent: resolve worker executable: %w", err)
		}
		c.Executable = exe
	}
	if c.Scratch == "" {
		return fmt.Errorf("agent: scratch directory is required")
	}
	if c.Capacity <= 0 {
		c.Capacity = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return nil
}

// run is one held cell attempt: running until done is closed, then a
// finished result whose artifacts stay served until acked, aborted, or
// superseded.
type run struct {
	cell   fleet.Cell
	epoch  int
	dir    string // artifact staging dir (what result/ serves)
	cancel context.CancelFunc
	done   chan struct{}

	superseded atomic.Bool

	mu   sync.Mutex
	subs map[chan struct{}]struct{}
	// Result fields; written once before done is closed.
	ok    bool
	cause string
	tail  string
}

func (r *run) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch
}

func (r *run) unsubscribe(ch chan struct{}) {
	r.mu.Lock()
	delete(r.subs, ch)
	r.mu.Unlock()
}

// notify pulses every watch subscriber; a slow subscriber keeps its one
// pending pulse rather than blocking the worker's heartbeat pump.
func (r *run) notify() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ch := range r.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (r *run) isDone() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

func (r *run) status() fleet.AgentRunStatus {
	st := fleet.AgentRunStatus{Cell: r.cell.ID, Epoch: r.epoch}
	if r.isDone() {
		r.mu.Lock()
		st.Done, st.OK, st.Cause, st.StderrTail = true, r.ok, r.cause, r.tail
		r.mu.Unlock()
	}
	return st
}

// finish publishes the result and wakes watchers.
func (r *run) finish(ok bool, cause, tail string) {
	r.mu.Lock()
	r.ok, r.cause, r.tail = ok, cause, tail
	r.mu.Unlock()
	close(r.done)
}

// Agent is one HTTP worker agent.
type Agent struct {
	cfg Config
	adm *serve.Admission

	mu   sync.Mutex
	runs map[string]*run // cell ID → current run
	// epochs is the per-cell fencing floor: the highest epoch ever seen.
	// It outlives runs (ack clears the run, not the floor), so a stale
	// zombie stays fenced even after its successor's scratch is released.
	epochs map[string]int

	draining atomic.Bool
	panics   atomic.Uint64
	handler  http.Handler
	redact   func(string) string
}

// scrub redacts the fleet secret from a status reply's free-text fields.
func (a *Agent) scrub(st fleet.AgentRunStatus) fleet.AgentRunStatus {
	if a.redact != nil {
		st.Cause = a.redact(st.Cause)
		st.StderrTail = a.redact(st.StderrTail)
	}
	return st
}

// New builds an agent; Handler serves its API.
func New(cfg Config) (*Agent, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	for _, sub := range []string{"runs", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(cfg.Scratch, sub), 0o755); err != nil {
			return nil, fmt.Errorf("agent: create scratch: %w", err)
		}
	}
	a := &Agent{
		cfg:    cfg,
		adm:    serve.NewAdmission(cfg.Capacity, 0, 0, cfg.RetryAfter),
		runs:   map[string]*run{},
		epochs: map[string]int{},
	}
	api := http.NewServeMux()
	api.HandleFunc(fleet.AgentPathRun, a.handleRun)
	api.HandleFunc(fleet.AgentPathWatch, a.handleWatch)
	api.HandleFunc(fleet.AgentPathResult, a.handleResult)
	api.HandleFunc(fleet.AgentPathAck, a.handleAck)
	api.HandleFunc(fleet.AgentPathAbort, a.handleAbort)
	api.HandleFunc(fleet.AgentPathStatus, a.handleStatus)
	var apiH http.Handler = api
	if len(cfg.Secret) > 0 {
		// Every API request must carry a valid fleet signature; only the
		// liveness probe stays open.
		apiH = serve.NewAuthenticator(cfg.Secret).Middleware(apiH)
		a.redact = func(s string) string { return serve.RedactSecret(s, cfg.Secret) }
	}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", apiH)
	mux.HandleFunc(fleet.AgentPathHealth, a.handleHealth)
	a.handler = serve.Recover(mux, func() { a.panics.Add(1) })
	return a, nil
}

// Handler is the agent's HTTP API, panic-recovered.
func (a *Agent) Handler() http.Handler { return a.handler }

// Drain refuses new assignments and waits (bounded) for running cells to
// finish; finished results stay fetchable until shutdown.
func (a *Agent) Drain() bool {
	a.draining.Store(true)
	return a.adm.DrainWait(a.cfg.DrainTimeout)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleRun accepts (or fences, or joins) one cell assignment.
func (a *Agent) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req fleet.RunRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "parse run request: %v", err)
		return
	}
	if req.Cell.ID == "" || req.Epoch < 1 {
		writeErr(w, http.StatusBadRequest, "run request needs a cell ID and epoch >= 1")
		return
	}
	id := req.Cell.ID
	a.mu.Lock()
	if floor := a.epochs[id]; req.Epoch < floor {
		a.mu.Unlock()
		writeErr(w, http.StatusConflict, "epoch %d is fenced: highest seen for %s is %d", req.Epoch, id, floor)
		return
	}
	if cur := a.runs[id]; cur != nil {
		if cur.epoch == req.Epoch {
			// Idempotent join: duplicate delivery or coordinator restart.
			// Joins are answered even mid-drain — the work is already here.
			st := cur.status()
			a.mu.Unlock()
			writeJSON(w, http.StatusOK, a.scrub(st))
			return
		}
		if cur.epoch > req.Epoch {
			a.mu.Unlock()
			writeErr(w, http.StatusConflict, "epoch %d is fenced: cell %s already runs epoch %d", req.Epoch, id, cur.epoch)
			return
		}
		// A newer epoch supersedes the held run: kill it now so its slot
		// frees, clean its scratch once it exits.
		a.supersedeLocked(cur)
	}
	if a.draining.Load() {
		// New work only is refused. The draining marker tells the
		// coordinator not to retry here: re-place the cell elsewhere at
		// once, nothing charged.
		a.mu.Unlock()
		w.Header().Set(fleet.AgentDrainingHeader, "1")
		a.adm.Shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if !a.adm.TryAcquire() {
		a.mu.Unlock()
		a.adm.Shed(w, http.StatusTooManyRequests, "at capacity")
		return
	}
	rn := &run{
		cell:  req.Cell,
		epoch: req.Epoch,
		dir:   filepath.Join(a.cfg.Scratch, "runs", id, fmt.Sprintf("e%d", req.Epoch)),
		done:  make(chan struct{}),
		subs:  map[chan struct{}]struct{}{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	rn.cancel = cancel
	a.runs[id] = rn
	a.epochs[id] = req.Epoch
	a.mu.Unlock()

	fmt.Fprintf(a.cfg.Log, "agent: cell %s: accepted epoch %d\n", id, req.Epoch)
	go a.execute(ctx, rn, req)
	writeJSON(w, http.StatusAccepted, a.scrub(rn.status()))
}

// supersedeLocked (a.mu held) evicts a run: marks it superseded, kills
// its worker, and schedules scratch cleanup for after it exits. Only the
// evicted epoch's own staging dir is removed — a successor epoch may
// already be writing next to it under the same cell directory.
func (a *Agent) supersedeLocked(old *run) {
	old.superseded.Store(true)
	old.cancel()
	delete(a.runs, old.cell.ID)
	go func() {
		<-old.done
		_ = os.RemoveAll(old.dir)
	}()
}

// execute runs one accepted assignment to completion: subprocess via the
// shared local transport, agent-side verification of the staged
// artifacts, result published to watchers.
func (a *Agent) execute(ctx context.Context, rn *run, req fleet.RunRequest) {
	defer a.adm.Release()
	id := rn.cell.ID
	finish := func(ok bool, cause, tail string) {
		rn.finish(ok, cause, tail)
		outcome := "ok"
		if !ok {
			outcome = cause
		}
		fmt.Fprintf(a.cfg.Log, "agent: cell %s: epoch %d finished: %s\n", id, rn.epoch, outcome)
	}
	if err := os.RemoveAll(rn.dir); err != nil {
		finish(false, "clear staging dir: "+err.Error(), "")
		return
	}
	if err := os.MkdirAll(rn.dir, 0o755); err != nil {
		finish(false, "create staging dir: "+err.Error(), "")
		return
	}
	lt := &fleet.LocalTransport{Executable: a.cfg.Executable}
	att := fleet.Attempt{
		Cell:  rn.cell,
		Epoch: rn.epoch,
		// Checkpoints persist across epochs so a retried cell resumes
		// mid-simulation on this host.
		CheckpointDir: filepath.Join(a.cfg.Scratch, "checkpoints", id),
		Heartbeat:     req.Heartbeat,
		Env:           req.Env,
	}
	err := lt.Run(ctx, att, rn.dir, rn.notify)
	if rn.superseded.Load() {
		finish(false, "superseded by a newer epoch", "")
		return
	}
	if err != nil {
		var ae *fleet.AttemptError
		if errors.As(err, &ae) {
			finish(false, ae.Cause, ae.Tail)
		} else {
			finish(false, err.Error(), "")
		}
		return
	}
	// Verify before offering: a corrupt staging dir fails here, on the
	// host that produced it, instead of after a cross-network fetch. The
	// coordinator still re-verifies everything before acceptance.
	if problems, err := report.VerifyDir(rn.dir); err != nil {
		finish(false, "output failed verification: "+err.Error(), "")
		return
	} else if len(problems) > 0 {
		finish(false, fmt.Sprintf("output failed verification: %d problem(s), first: %s", len(problems), problems[0]), "")
		return
	}
	if rn.cell.DumpDataset {
		if err := dsio.CheckDir(rn.dir); err != nil {
			finish(false, "dataset failed verification: "+err.Error(), "")
			return
		}
	}
	finish(true, "", "")
}

// ref parses a "{cell}/{epoch}" or "{cell}/{epoch}/{rest}" path suffix.
func parseRef(suffix string) (cell string, epoch int, rest string, err error) {
	parts := strings.SplitN(suffix, "/", 3)
	if len(parts) < 2 || parts[0] == "" {
		return "", 0, "", fmt.Errorf("want {cell}/{epoch}")
	}
	epoch, err = strconv.Atoi(parts[1])
	if err != nil || epoch < 1 {
		return "", 0, "", fmt.Errorf("bad epoch %q", parts[1])
	}
	if len(parts) == 3 {
		rest = parts[2]
	}
	return parts[0], epoch, rest, nil
}

// lookup resolves a (cell, epoch) to the held run, or writes the protocol
// verdict: 409 when the epoch is fenced or superseded, 404 when the agent
// simply does not know the attempt (it restarted, or the run was acked).
func (a *Agent) lookup(w http.ResponseWriter, cell string, epoch int) *run {
	a.mu.Lock()
	rn := a.runs[cell]
	floor := a.epochs[cell]
	a.mu.Unlock()
	if rn != nil && rn.epoch == epoch {
		return rn
	}
	if epoch < floor || (rn != nil && rn.epoch > epoch) {
		writeErr(w, http.StatusConflict, "epoch %d for %s is fenced (floor %d)", epoch, cell, floor)
	} else {
		writeErr(w, http.StatusNotFound, "no run for cell %s epoch %d", cell, epoch)
	}
	return nil
}

// handleWatch streams heartbeats ("hb" lines) and the final WatchEvent.
func (a *Agent) handleWatch(w http.ResponseWriter, r *http.Request) {
	cell, epoch, _, err := parseRef(strings.TrimPrefix(r.URL.Path, fleet.AgentPathWatch))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "watch: %v", err)
		return
	}
	rn := a.lookup(w, cell, epoch)
	if rn == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sub := rn.subscribe()
	defer rn.unsubscribe(sub)
	for {
		select {
		case <-rn.done:
			st := a.scrub(rn.status())
			ev := fleet.WatchEvent{Done: true, OK: st.OK, Cause: st.Cause,
				StderrTail: st.StderrTail, Superseded: rn.superseded.Load()}
			data, _ := json.Marshal(ev)
			_, _ = w.Write(append(data, '\n'))
			fl.Flush()
			return
		case <-sub:
			if _, err := io.WriteString(w, fleet.AgentWatchHeartbeat+"\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult serves one finished artifact by its manifest path.
func (a *Agent) handleResult(w http.ResponseWriter, r *http.Request) {
	cell, epoch, name, err := parseRef(strings.TrimPrefix(r.URL.Path, fleet.AgentPathResult))
	if err != nil || name == "" {
		writeErr(w, http.StatusBadRequest, "result: want {cell}/{epoch}/{artifact}")
		return
	}
	rn := a.lookup(w, cell, epoch)
	if rn == nil {
		return
	}
	if !rn.isDone() {
		writeErr(w, http.StatusConflict, "cell %s epoch %d is still running", cell, epoch)
		return
	}
	if st := a.scrub(rn.status()); !st.OK {
		writeErr(w, http.StatusConflict, "cell %s epoch %d failed: %s", cell, epoch, st.Cause)
		return
	}
	clean := path.Clean(name)
	if clean != name || path.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, "../") {
		writeErr(w, http.StatusBadRequest, "unsafe artifact path %q", name)
		return
	}
	full := filepath.Join(rn.dir, filepath.FromSlash(clean))
	fi, err := os.Stat(full)
	if err != nil || fi.IsDir() {
		writeErr(w, http.StatusNotFound, "no artifact %q", name)
		return
	}
	http.ServeFile(w, r, full)
}

// handleAck releases a finished run's scratch. Idempotent: acking an
// unknown (already released) run succeeds. The epoch floor survives, so
// stale epochs stay fenced after release.
func (a *Agent) handleAck(w http.ResponseWriter, r *http.Request) {
	var ref fleet.AgentCellRef
	if r.Method != http.MethodPost || json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&ref) != nil {
		writeErr(w, http.StatusBadRequest, "ack: want POST {cell, epoch}")
		return
	}
	a.mu.Lock()
	rn := a.runs[ref.Cell]
	if rn != nil && rn.epoch == ref.Epoch && rn.isDone() {
		delete(a.runs, ref.Cell)
	} else {
		rn = nil
	}
	a.mu.Unlock()
	if rn != nil {
		_ = os.RemoveAll(filepath.Dir(rn.dir))
		_ = os.RemoveAll(filepath.Join(a.cfg.Scratch, "checkpoints", ref.Cell))
		fmt.Fprintf(a.cfg.Log, "agent: cell %s: acked epoch %d, scratch released\n", ref.Cell, ref.Epoch)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleAbort kills and discards a held run at or below the given epoch
// and raises the fencing floor past it, so the epoch can never run or
// publish here again. Idempotent and always 200: the coordinator fires it
// best-effort after reclaims and supersessions.
func (a *Agent) handleAbort(w http.ResponseWriter, r *http.Request) {
	var ref fleet.AgentCellRef
	if r.Method != http.MethodPost || json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&ref) != nil {
		writeErr(w, http.StatusBadRequest, "abort: want POST {cell, epoch}")
		return
	}
	a.mu.Lock()
	if a.epochs[ref.Cell] <= ref.Epoch {
		a.epochs[ref.Cell] = ref.Epoch + 1
	}
	if rn := a.runs[ref.Cell]; rn != nil && rn.epoch <= ref.Epoch {
		a.supersedeLocked(rn)
		fmt.Fprintf(a.cfg.Log, "agent: cell %s: aborted epoch %d\n", ref.Cell, rn.epoch)
	}
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatus reports everything the agent holds.
func (a *Agent) handleStatus(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	runs := make([]*run, 0, len(a.runs))
	for _, rn := range a.runs {
		runs = append(runs, rn)
	}
	a.mu.Unlock()
	reply := fleet.AgentStatusReply{
		Draining:  a.draining.Load(),
		Capacity:  a.cfg.Capacity,
		Admission: a.adm.Stats(),
		Panics:    a.panics.Load(),
	}
	for _, rn := range runs {
		reply.Runs = append(reply.Runs, a.scrub(rn.status()))
	}
	writeJSON(w, http.StatusOK, reply)
}

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	if a.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
