// The coordinator: expands the grid, fans cells across transports — local
// crash-isolated subprocesses and remote HTTP agents — and guarantees
// that every cell terminates either completed-and-verified or
// quarantined-with-cause, whatever the workers, agents, or the network
// between them do. The mechanisms, in order of line of defense:
//
//   - leases: a running attempt must signal liveness (subprocess stdout,
//     agent watch-stream heartbeats) before its deadline; a silent
//     attempt — wedged, killed, partitioned, or unplugged — is cancelled
//     and its cell reclaimed for retry. Each attempt's 1-based number is
//     its epoch: agents fence every request below the highest epoch they
//     have seen per cell, so a reclaimed attempt reconnecting late can
//     never publish over a newer one;
//   - verification: an attempt is accepted only if its staged artifact
//     directory verifies against its manifest (report.VerifyDir), its
//     recorded cell spec matches, and any chunked dataset passes
//     dsio.CheckDir — remote artifacts are digest-checked once per file
//     in flight and re-verified here before acceptance;
//   - scheduling: cheapest cells dispatch first across the healthiest
//     free transport; a transport that keeps failing dispatches cools
//     down; an attempt that outlives StragglerAfter gets a rescue
//     dispatch on a different transport, first verified result wins and
//     the loser is superseded without charge;
//   - bounded retries: failures back off deterministically and a cell
//     that keeps failing is quarantined with its cause and stderr tail,
//     so one poison cell can never wedge the run;
//   - the journal: every transition is fsynced append-only with its
//     transport and agent identity, so -resume can re-attach to cells
//     still running on live agents at the same epoch, discard stale
//     agent-held results, and never re-run completed cells.

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/serve"
)

// Run-directory layout.
const (
	// GridFileName is the copy of the grid spec inside the run directory.
	GridFileName = "grid.json"
	// CellsDirName holds one verified artifact directory per completed cell.
	CellsDirName = "cells"
	// WorkDirName holds in-flight attempt scratch directories.
	WorkDirName = "work"
	// CheckpointsDirName holds per-cell simulation checkpoints, persisted
	// across attempts so a retried cell resumes mid-simulation.
	CheckpointsDirName = "checkpoints"
	// MergedDirName is the merged cross-scenario corpus.
	MergedDirName = "merged"
)

// Options tunes the coordinator. Zero values get sensible defaults.
type Options struct {
	// Workers is the number of concurrent local worker subprocesses
	// (default 4 when no agents are configured; 0 with agents configured
	// means agents-only).
	Workers int
	// MaxAttempts quarantines a cell after this many failed attempts
	// (default 3).
	MaxAttempts int
	// LeaseTTL is the liveness deadline: a running attempt that stays
	// silent this long is reclaimed (default 30s).
	LeaseTTL time.Duration
	// Heartbeat is the period workers are told to beat at (default
	// LeaseTTL/5).
	Heartbeat time.Duration
	// BackoffBase seeds the deterministic retry backoff base × 2^(fails-1),
	// capped at 32×base (default 250ms).
	BackoffBase time.Duration
	// StragglerAfter re-dispatches a cell still running after this long on
	// a second, different transport; the first verified result wins (0 =
	// disabled). It needs at least two transports to act.
	StragglerAfter time.Duration
	// Executable is the worker binary (default: this binary, whose main
	// must call MaybeWorker first).
	Executable string
	// Agents lists remote pbsagent workers to dispatch to, alongside (or
	// instead of, with Workers 0) the local subprocess pool.
	Agents []AgentSpec
	// Transports, when set, overrides Workers/Agents entirely — the chaos
	// suite injects fault-wrapped transports here.
	Transports []Transport
	// WorkerEnv, when set, returns extra environment entries for an
	// attempt — the chaos harness injects faults.ProcEnv through it.
	WorkerEnv func(cell Cell, attempt int) []string
	// Secret, when set, signs every agent RPC with the fleet's shared
	// HMAC authenticator and scrubs the secret from journal records. An
	// agent that rejects the credentials outright is disabled — never
	// dispatched to again this run.
	Secret []byte
	// Registry, when set, merges self-registered agents into the fleet
	// each scheduling pass, journaling joins and leaves.
	Registry *Registry
	// AgentHTTP, when set, supplies the HTTP client for agent transports
	// the coordinator builds itself (dynamic members, -agents specs): the
	// hook for TLS root pools and the chaos suite's fault injection.
	AgentHTTP func(AgentSpec) *http.Client
	// Log receives progress lines (default: discard).
	Log io.Writer
}

func (o *Options) fill() error {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 5
	}
	// A heartbeat period at or past half the lease TTL leaves no slack for
	// scheduling jitter: every attempt would be reclaimed as hung and the
	// whole grid would quarantine with a misleading no-heartbeat cause.
	if o.Heartbeat >= o.LeaseTTL/2 {
		return fmt.Errorf("fleet: heartbeat period %v must be under half the lease TTL %v, or every attempt will be reclaimed as hung",
			o.Heartbeat, o.LeaseTTL)
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.Executable == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("fleet: resolve worker executable: %w", err)
		}
		o.Executable = exe
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if err := ValidateAgents(o.Agents); err != nil {
		return err
	}
	if len(o.Transports) == 0 {
		// Workers 0 with a remote fleet (static agents or a registration
		// endpoint) means agents-only; with neither, a local pool is the
		// only way to make progress, so one is always created.
		if o.Workers > 0 || (len(o.Agents) == 0 && o.Registry == nil) {
			w := o.Workers
			if w <= 0 {
				w = 4
			}
			o.Transports = append(o.Transports, &LocalTransport{Executable: o.Executable, Slots: w})
		}
		for _, a := range o.Agents {
			o.Transports = append(o.Transports, NewAgentTransport(a))
		}
	}
	seen := map[string]bool{}
	for _, tr := range o.Transports {
		if seen[tr.Name()] {
			return fmt.Errorf("fleet: duplicate transport %q", tr.Name())
		}
		seen[tr.Name()] = true
	}
	return nil
}

// lease tracks one running attempt's heartbeat state. It is its own type
// so the expiry edge cases are unit-testable without subprocesses.
type lease struct {
	mu        sync.Mutex
	attempt   int
	lastBeat  time.Time
	reclaimed bool
}

func newLease(attempt int, now time.Time) *lease {
	return &lease{attempt: attempt, lastBeat: now}
}

// beat records a heartbeat for the given attempt. It reports false — and
// records nothing — when the heartbeat is stale: from an older attempt, or
// arriving just after the lease was reclaimed. A reclaimed lease stays
// reclaimed; late heartbeats cannot resurrect it.
func (l *lease) beat(attempt int, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.reclaimed || attempt != l.attempt {
		return false
	}
	if now.After(l.lastBeat) {
		l.lastBeat = now
	}
	return true
}

// expired reports whether the lease deadline has passed.
func (l *lease) expired(now time.Time, ttl time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.reclaimed && now.Sub(l.lastBeat) > ttl
}

// reclaim marks the lease revoked; only the first caller gets true.
func (l *lease) reclaim() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.reclaimed {
		return false
	}
	l.reclaimed = true
	return true
}

func (l *lease) wasReclaimed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reclaimed
}

// transportState is the scheduler's per-transport health and slot book.
type transportState struct {
	t             Transport
	free          int
	consecFails   int
	cooldownUntil time.Time
	// disabled marks a transport whose agent rejected the fleet's
	// credentials: a config error no retry fixes, so it never receives
	// another dispatch this run.
	disabled bool
	// dynamic marks a transport built from a registry member; gone marks a
	// dynamic member whose registration lapsed (it may return).
	dynamic bool
	gone    bool
}

// usable reports whether the scheduler may place work here.
func (ts *transportState) usable() bool { return !ts.disabled && !ts.gone }

// noteFailure records a dispatch-level failure (unreachable, reclaimed):
// consecutive failures cool the transport down exponentially so a dead
// agent stops eating dispatch attempts while the rest of the fleet works.
func (ts *transportState) noteFailure(now time.Time, base time.Duration) {
	ts.consecFails++
	d := base << uint(ts.consecFails-1)
	if d > 32*base || d <= 0 {
		d = 32 * base
	}
	ts.cooldownUntil = now.Add(d)
}

func (ts *transportState) noteSuccess() {
	ts.consecFails = 0
	ts.cooldownUntil = time.Time{}
}

// liveAttempt is one in-flight dispatch of a cell.
type liveAttempt struct {
	epoch      int
	ts         *transportState
	started    time.Time
	lease      *lease
	cancel     context.CancelFunc
	rescue     bool
	superseded atomic.Bool
}

// pinnedLease re-attaches a resumed cell to the agent still holding its
// open lease: the next dispatch joins that agent at the same epoch
// instead of charging the cell a failure and starting over.
type pinnedLease struct {
	epoch int
	ts    *transportState
}

// cellRun is the coordinator's live state for one cell.
type cellRun struct {
	cell       Cell
	status     CellStatus
	attempts   int
	fails      int
	noDispatch int
	readyAt    time.Time
	rescued    bool
	live       map[int]*liveAttempt
	pin        *pinnedLease
	cause      string
	tail       string
}

// Coordinator drives one fleet run directory.
type Coordinator struct {
	runDir     string
	grid       *Grid
	opts       Options
	journal    *Journal
	cells      []*cellRun // grid order (the merge order)
	order      []*cellRun // dispatch order: cheapest cells first
	byID       map[string]*cellRun
	transports []*transportState
	totalCap   int
	rescues    int
	auth       *serve.Authenticator
	ledger     *TransferLedger
	// dynGraceUntil suppresses "member left" verdicts right after start:
	// journaled dynamic members get one registry TTL to re-announce before
	// resume declares them gone.
	dynGraceUntil time.Time
	mu            sync.Mutex // guards accept's publish step
}

// Ledger exposes the fleet-wide transfer-byte ledger (nil-safe to read via
// Stats when no agent transports exist).
func (c *Coordinator) Ledger() *TransferLedger { return c.ledger }

// QuarantinedCell is one permanently failed cell in the run summary.
type QuarantinedCell struct {
	ID         string `json:"id"`
	Cause      string `json:"cause"`
	StderrTail string `json:"stderr_tail,omitempty"`
}

// Summary is a finished (or resumed-to-finished) run.
type Summary struct {
	Cells       int
	Completed   int
	Quarantined []QuarantinedCell
	MergedDir   string
	// StragglerRescues counts cells completed by a rescue dispatch after
	// their first attempt outlived StragglerAfter.
	StragglerRescues int
}

// aborter is the optional transport hook to fence and discard a remote
// attempt (fire-and-forget).
type aborter interface {
	Abort(cell string, epoch int)
}

// statusProber is the optional transport hook resume uses to ask an agent
// what it is still holding.
type statusProber interface {
	Status(ctx context.Context) (*AgentStatusReply, error)
}

// NewCoordinator opens (or resumes) a fleet run directory. With resume
// false the directory must not already contain a journal; with resume true
// the journal's grid fingerprint must match, completed cells are verified
// and kept, cells whose artifacts were published but never journaled (a
// coordinator killed between rename and append) are adopted, and cells
// with an open lease on a still-configured agent are pinned for re-attach
// at the same epoch.
func NewCoordinator(runDir string, grid *Grid, opts Options, resume bool) (*Coordinator, error) {
	if len(opts.Agents) == 0 {
		opts.Agents = grid.Agents
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	cells, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	for _, sub := range []string{"", CellsDirName, WorkDirName, CheckpointsDirName} {
		if err := os.MkdirAll(filepath.Join(runDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("fleet: create run dir: %w", err)
		}
	}
	recs, err := ReplayJournal(runDir)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 && !resume {
		return nil, fmt.Errorf("fleet: %s already holds a run journal; pass -resume to continue it", runDir)
	}
	if resume && len(recs) > 0 {
		st := ReplayState(recs)
		if st.Fingerprint != "" && st.Fingerprint != grid.Fingerprint() {
			return nil, fmt.Errorf("fleet: resume grid mismatch: journal has %.12s.., grid is %.12s.. — the grid file changed since the run started",
				st.Fingerprint, grid.Fingerprint())
		}
	}
	gridData, err := jsonMarshalIndent(grid)
	if err != nil {
		return nil, err
	}
	if err := atomicio.WriteFile(filepath.Join(runDir, GridFileName), gridData, 0o644); err != nil {
		return nil, err
	}
	j, err := OpenJournal(runDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{runDir: runDir, grid: grid, opts: opts, journal: j, byID: map[string]*cellRun{}, ledger: &TransferLedger{}}
	if len(opts.Secret) > 0 {
		c.auth = serve.NewAuthenticator(opts.Secret)
		// Any free-text field a worker or agent error flows into is
		// scrubbed before it lands on disk: the journal must stay
		// grep-proof for the secret.
		j.SetRedact(func(s string) string { return serve.RedactSecret(s, opts.Secret) })
	}
	for _, tr := range opts.Transports {
		c.equipAgentTransport(tr)
		ts := &transportState{t: tr, free: tr.Capacity()}
		c.transports = append(c.transports, ts)
		c.totalCap += ts.free
	}
	if len(recs) == 0 {
		if err := j.Append(Record{Event: EventGrid, GridName: grid.Name, Fingerprint: grid.Fingerprint()}); err != nil {
			return nil, err
		}
	}
	st := ReplayState(recs)
	// Rebuild journaled dynamic members (latest membership record is a
	// join) so leases pinned to self-registered agents stay re-attachable.
	// They get one registry TTL of grace to re-announce before the merge
	// pass declares them gone.
	{
		addrs := make([]string, 0, len(st.Agents))
		for addr := range st.Agents {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			if c.findTransport("agent:"+addr) == nil {
				c.addDynamicTransport(st.Agents[addr])
			}
		}
	}
	if opts.Registry != nil {
		c.dynGraceUntil = time.Now().Add(opts.Registry.ttl())
	}
	for _, cell := range cells {
		cr := &cellRun{cell: cell, status: StatusPending, live: map[int]*liveAttempt{}}
		if cs := st.Cells[cell.ID]; cs != nil {
			cr.status = cs.Status
			cr.attempts = cs.Attempts
			cr.fails = cs.Fails
			cr.cause = cs.Cause
			cr.tail = cs.StderrTail
			if cr.status == StatusPending {
				cr.pin = c.pinFor(cs)
			}
		}
		c.cells = append(c.cells, cr)
		c.byID[cell.ID] = cr
	}
	// Dispatch order: cheapest cells first (fewest simulated slots), ties
	// broken by ID for determinism. The merge keeps grid order.
	c.order = append([]*cellRun(nil), c.cells...)
	sort.SliceStable(c.order, func(i, j int) bool {
		si, sj := c.order[i].cell.Slots(), c.order[j].cell.Slots()
		if si != sj {
			return si < sj
		}
		return c.order[i].cell.ID < c.order[j].cell.ID
	})
	if err := c.reconcile(); err != nil {
		return nil, err
	}
	if err := c.reconcileAgents(); err != nil {
		return nil, err
	}
	return c, nil
}

// pinFor maps a replayed cell's highest open lease to a configured agent
// transport. Local leases died with the coordinator; an open agent lease
// may still be running (or finished, held) remotely, so the cell is
// pinned to rejoin it at the same epoch.
func (c *Coordinator) pinFor(cs *CellState) *pinnedLease {
	best := 0
	var bestTS *transportState
	for epoch, place := range cs.Open {
		if place.Agent == "" || epoch < best {
			continue
		}
		for _, ts := range c.transports {
			if ts.t.Name() == place.Transport {
				best, bestTS = epoch, ts
				break
			}
		}
	}
	if bestTS == nil {
		return nil
	}
	return &pinnedLease{epoch: best, ts: bestTS}
}

// equipAgentTransport wires the coordinator's shared plumbing into an
// agent transport — the fleet authenticator, the transfer-byte ledger,
// and the AgentHTTP client hook — leaving anything the caller already set
// (the chaos suite's fault-injecting clients) alone.
func (c *Coordinator) equipAgentTransport(tr Transport) {
	at, ok := tr.(*AgentTransport)
	if !ok {
		return
	}
	if at.Auth == nil {
		at.Auth = c.auth
	}
	if at.Ledger == nil {
		at.Ledger = c.ledger
	}
	if at.HTTP == nil && c.opts.AgentHTTP != nil {
		at.HTTP = c.opts.AgentHTTP(at.Spec)
	}
}

func (c *Coordinator) findTransport(name string) *transportState {
	for _, ts := range c.transports {
		if ts.t.Name() == name {
			return ts
		}
	}
	return nil
}

// addDynamicTransport books a transport for a self-registered agent.
// Callers journal the join; resume-rebuilds (the join is already on disk)
// do not.
func (c *Coordinator) addDynamicTransport(spec AgentSpec) *transportState {
	tr := NewAgentTransport(spec)
	c.equipAgentTransport(tr)
	ts := &transportState{t: tr, free: tr.Capacity(), dynamic: true}
	c.transports = append(c.transports, ts)
	c.totalCap += ts.free
	return ts
}

func (c *Coordinator) anyUsable() bool {
	for _, ts := range c.transports {
		if ts.usable() {
			return true
		}
	}
	return false
}

// syncMembers merges the registry's live roster into the transport set
// each scheduling pass: new members join (journaled, so -resume can
// rebuild them), members whose registration lapsed are marked gone
// (journaled leave) once the startup grace passes, and a returning member
// revives its existing transport — keeping any pinned leases valid.
// Static transports are never touched.
func (c *Coordinator) syncMembers(now time.Time) error {
	if c.opts.Registry == nil {
		return nil
	}
	roster := c.opts.Registry.Snapshot()
	live := make(map[string]bool, len(roster))
	for _, m := range roster {
		addr := m.Spec.Addr
		live[addr] = true
		ts := c.findTransport("agent:" + addr)
		switch {
		case ts == nil:
			c.addDynamicTransport(m.Spec)
			if err := c.journal.Append(Record{Event: EventAgentJoin, Agent: addr,
				Capacity: m.Spec.Capacity, TLSAgent: m.Spec.TLS}); err != nil {
				return err
			}
			fmt.Fprintf(c.opts.Log, "fleet: agent %s joined (capacity %d)\n", addr, m.Spec.Capacity)
		case ts.dynamic && ts.gone:
			// Back from the dead: revive the same transport so pinned
			// leases and in-flight bookkeeping stay attached. Re-journal
			// the join so the roster's latest membership record is a join.
			ts.gone = false
			ts.noteSuccess()
			if err := c.journal.Append(Record{Event: EventAgentJoin, Agent: addr,
				Capacity: m.Spec.Capacity, TLSAgent: m.Spec.TLS, Cause: "re-registered"}); err != nil {
				return err
			}
			fmt.Fprintf(c.opts.Log, "fleet: agent %s re-registered\n", addr)
		}
	}
	// Lapsed members. Journaled members rebuilt on resume get one registry
	// TTL of grace to re-announce before they are declared gone.
	if now.Before(c.dynGraceUntil) {
		return nil
	}
	for _, ts := range c.transports {
		if !ts.dynamic || ts.gone {
			continue
		}
		aa, ok := ts.t.(interface{ AgentAddr() string })
		if !ok || live[aa.AgentAddr()] {
			continue
		}
		ts.gone = true
		if err := c.journal.Append(Record{Event: EventAgentLeave, Agent: aa.AgentAddr(),
			Cause: "registration expired or agent deregistered"}); err != nil {
			return err
		}
		fmt.Fprintf(c.opts.Log, "fleet: agent %s left the fleet (registration lapsed)\n", aa.AgentAddr())
	}
	return nil
}

// reconcileAgents probes every configured agent for runs it still holds.
// A held run matching a cell's pinned open lease is left alone (the
// dispatcher rejoins it); anything else for our cells — a fenced earlier
// epoch, a result for an already-completed cell — is a stale publication:
// journaled as such, aborted, and never fetched.
func (c *Coordinator) reconcileAgents() error {
	for _, ts := range c.transports {
		prober, ok := ts.t.(statusProber)
		if !ok {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		reply, err := prober.Status(ctx)
		cancel()
		if err != nil {
			// An unreachable agent is tolerated: if it holds a pinned
			// lease the rejoin dispatch will settle it one way or the
			// other.
			fmt.Fprintf(c.opts.Log, "fleet: agent %s: status probe failed (tolerated): %v\n", ts.t.Name(), err)
			continue
		}
		for _, run := range reply.Runs {
			cr := c.byID[run.Cell]
			if cr == nil {
				continue // not ours to manage
			}
			keep := cr.status == StatusPending && cr.pin != nil &&
				cr.pin.ts == ts && cr.pin.epoch == run.Epoch
			if keep {
				continue
			}
			cause := fmt.Sprintf("agent holds epoch %d; newest journaled attempt is %d", run.Epoch, cr.attempts)
			if cr.status == StatusCompleted {
				cause = fmt.Sprintf("cell already completed; agent-held epoch %d discarded", run.Epoch)
			}
			rec := Record{Event: EventStalePublish, Cell: run.Cell, Attempt: run.Epoch,
				Transport: ts.t.Name(), Cause: cause}
			if aa, ok := ts.t.(interface{ AgentAddr() string }); ok {
				rec.Agent = aa.AgentAddr()
			}
			if err := c.journal.Append(rec); err != nil {
				return err
			}
			fmt.Fprintf(c.opts.Log, "fleet: cell %s: stale publication fenced on %s: %s\n", run.Cell, ts.t.Name(), cause)
			if ab, ok := ts.t.(aborter); ok {
				ab.Abort(run.Cell, run.Epoch)
			}
		}
	}
	return nil
}

// reconcile squares the journal's verdicts with what is actually on disk:
// journaled completions must still verify (a corrupt published cell is
// demoted and re-run), and verified published cells missing their
// completion record are adopted. Work-dir debris from killed attempts is
// cleared.
func (c *Coordinator) reconcile() error {
	for _, cr := range c.cells {
		final := filepath.Join(c.runDir, CellsDirName, cr.cell.ID)
		verified := dirVerifies(final)
		switch {
		case cr.status == StatusCompleted && !verified:
			fmt.Fprintf(c.opts.Log, "fleet: cell %s: journaled complete but artifacts do not verify; re-running\n", cr.cell.ID)
			if err := os.RemoveAll(final); err != nil {
				return err
			}
			cr.status = StatusPending
		case cr.status == StatusPending && verified:
			// Cell IDs encode axis indices, not values: a verified directory
			// left behind by a different grid (journal removed, cells/ kept)
			// can carry the same ID for different knob settings. Only adopt
			// artifacts whose recorded cell spec is exactly this cell.
			if !publishedCellMatches(final, cr.cell) {
				fmt.Fprintf(c.opts.Log, "fleet: cell %s: verified artifacts record a different cell spec; re-running\n", cr.cell.ID)
				if err := os.RemoveAll(final); err != nil {
					return err
				}
				continue
			}
			// Died between artifact rename and journal append: the work is
			// done and provably intact — adopt it instead of re-running.
			if err := c.journal.Append(Record{Event: EventComplete, Cell: cr.cell.ID, Attempt: cr.attempts,
				Cause: "adopted on resume: artifacts verified"}); err != nil {
				return err
			}
			fmt.Fprintf(c.opts.Log, "fleet: cell %s: adopted verified artifacts on resume\n", cr.cell.ID)
			cr.status = StatusCompleted
			cr.pin = nil
		}
	}
	work := filepath.Join(c.runDir, WorkDirName)
	entries, err := os.ReadDir(work)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(work, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func dirVerifies(dir string) bool {
	problems, err := report.VerifyDir(dir)
	return err == nil && len(problems) == 0
}

// publishedCellMatches reports whether a published cell directory's
// summary records exactly this cell spec.
func publishedCellMatches(dir string, cell Cell) bool {
	sum, err := readCellSummary(dir)
	return err == nil && sum.Cell == cell
}

// attempt outcomes.
type outcome int

const (
	outCompleted outcome = iota
	outFailed
	outReclaimed
	outCanceled
	outSuperseded
	outUndispatched
	// outAuthRejected: the agent refused the fleet's credentials outright —
	// a configuration error no retry fixes. The transport is disabled for
	// the rest of the run and the cell re-placed without charge.
	outAuthRejected
)

type dispatch struct {
	cr     *cellRun
	epoch  int
	ts     *transportState
	rescue bool
	rejoin bool
}

type result struct {
	cr     *cellRun
	epoch  int
	ts     *transportState
	rescue bool
	out    outcome
	cause  string
	tail   string
	// freed reports that the attempt already handed its slot back through
	// Run's freed channel, so settle must not free it again.
	freed bool
}

// preAccept, when set, is called with the cell ID after an attempt's Run
// returned cleanly and its slot was handed back, before any acceptance
// check. Only the package's tests set it.
var preAccept func(cellID string)

// Run drives the grid to termination: every cell completed-and-verified or
// quarantined-with-cause, then the merged corpus is (re)built. On context
// cancellation it kills running attempts and returns the context error; the
// run directory stays resumable.
func (c *Coordinator) Run(ctx context.Context) (*Summary, error) {
	// Run-scoped context: an error return mid-loop (journal append or
	// settle failure) cancels it, so in-flight attempts are killed instead
	// of leaking live subprocesses or remote runs past Run.
	rctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	// Buffered so every attempt goroutine can deposit its result and exit
	// even after Run stops draining. The headroom past the starting
	// capacity covers members that self-register mid-run; the dispatch
	// guard below keeps inflight strictly under the buffer size.
	done := make(chan result, c.totalCap+64)
	// freed carries the slot of an attempt whose Run returned cleanly, so
	// the slot takes new work while that attempt's output is verified and
	// accepted. Sized like done: each attempt sends at most once, before
	// its result, and the done case below drains freed before settling, so
	// no more sends are pending than attempts in flight and a send never
	// blocks, even after Run stops draining.
	freed := make(chan *transportState, cap(done))
	takeFreed := func() {
		for {
			select {
			case ts := <-freed:
				ts.free++
			default:
				return
			}
		}
	}

	inflight := 0
	cancelled := false
	var timer *time.Timer
	for {
		if inflight == 0 && (cancelled || c.allTerminal()) {
			break
		}
		if !cancelled {
			if err := c.syncMembers(time.Now()); err != nil {
				return nil, err
			}
			for inflight < cap(done)-1 {
				d, ok := c.pickDispatch(time.Now())
				if !ok {
					break
				}
				if err := c.launch(rctx, ctx, d, done, freed, &wg); err != nil {
					return nil, err
				}
				inflight++
			}
			if inflight == 0 && !c.allTerminal() && !c.anyUsable() && c.opts.Registry == nil {
				// Every transport is disabled (wrong credentials) or gone,
				// nothing is running, and no registry can admit new members:
				// waiting would livelock. The journal keeps the run resumable
				// with fixed credentials.
				return nil, fmt.Errorf("fleet: no usable transports remain (agents rejected the fleet credentials or left); fix the secret and -resume")
			}
		}
		var timerC <-chan time.Time
		if !cancelled {
			if wait, ok := c.nextWakeIn(time.Now()); ok {
				timer = time.NewTimer(wait)
				timerC = timer.C
			}
		}
		select {
		case ts := <-freed:
			ts.free++
		case r := <-done:
			inflight--
			takeFreed()
			if err := c.settle(r); err != nil {
				return nil, err
			}
		case <-timerC:
		case <-ctx.Done():
			cancelled = true
			cancel()
		}
		if timer != nil {
			timer.Stop()
			timer = nil
		}
	}
	if cancelled {
		return nil, fmt.Errorf("fleet: interrupted: %w", ctx.Err())
	}

	mergedDir, err := c.merge()
	if err != nil {
		return nil, err
	}
	sum := &Summary{Cells: len(c.cells), MergedDir: mergedDir, StragglerRescues: c.rescues}
	for _, cr := range c.cells {
		switch cr.status {
		case StatusCompleted:
			sum.Completed++
		case StatusQuarantined:
			sum.Quarantined = append(sum.Quarantined, QuarantinedCell{ID: cr.cell.ID, Cause: cr.cause, StderrTail: cr.tail})
		}
	}
	return sum, nil
}

// pickDispatch chooses the next attempt to start, or reports none is
// startable right now. Pass one places fresh (or pinned-rejoin) attempts
// for idle pending cells, cheapest first; pass two rescues stragglers — a
// cell whose only live attempt has outlived StragglerAfter gets a second
// dispatch on a different transport.
func (c *Coordinator) pickDispatch(now time.Time) (dispatch, bool) {
	for _, cr := range c.order {
		if cr.status != StatusPending || len(cr.live) > 0 || now.Before(cr.readyAt) {
			continue
		}
		if cr.pin != nil && !cr.pin.ts.usable() {
			// The pinned agent was disabled or left the fleet; the open
			// lease cannot be rejoined. Fall through to a fresh dispatch.
			cr.pin = nil
		}
		if cr.pin != nil {
			if cr.pin.ts.free > 0 {
				d := dispatch{cr: cr, epoch: cr.pin.epoch, ts: cr.pin.ts, rejoin: true}
				cr.pin = nil
				return d, true
			}
			continue // wait for the pinned agent's slot
		}
		ts := c.pickTransport(now, nil)
		if ts == nil {
			break // no transport free for anyone right now
		}
		return dispatch{cr: cr, epoch: cr.attempts + 1, ts: ts}, true
	}
	if c.opts.StragglerAfter > 0 {
		for _, cr := range c.order {
			if cr.status != StatusPending || cr.rescued || len(cr.live) != 1 {
				continue
			}
			var la *liveAttempt
			for _, v := range cr.live {
				la = v
			}
			if now.Sub(la.started) < c.opts.StragglerAfter {
				continue
			}
			// Strictly a different transport: re-dispatching to the same
			// agent would fence (kill) the straggling attempt instead of
			// racing it.
			ts := c.pickTransport(now, la.ts)
			if ts == nil {
				continue
			}
			cr.rescued = true
			return dispatch{cr: cr, epoch: cr.attempts + 1, ts: ts, rescue: true}, true
		}
	}
	return dispatch{}, false
}

// pickTransport returns the healthiest transport with a free slot: not
// cooling down, fewest consecutive failures, then most free capacity,
// then configuration order.
func (c *Coordinator) pickTransport(now time.Time, avoid *transportState) *transportState {
	var best *transportState
	for _, ts := range c.transports {
		if ts == avoid || !ts.usable() || ts.free <= 0 || now.Before(ts.cooldownUntil) {
			continue
		}
		if best == nil || ts.consecFails < best.consecFails ||
			(ts.consecFails == best.consecFails && ts.free > best.free) {
			best = ts
		}
	}
	return best
}

// launch journals the lease and starts the attempt goroutine.
func (c *Coordinator) launch(rctx, parent context.Context, d dispatch, done chan<- result, freed chan<- *transportState, wg *sync.WaitGroup) error {
	cr, ts := d.cr, d.ts
	actx, acancel := context.WithCancel(rctx)
	la := &liveAttempt{
		epoch:   d.epoch,
		ts:      ts,
		started: time.Now(),
		lease:   newLease(d.epoch, time.Now()),
		cancel:  acancel,
		rescue:  d.rescue,
	}
	cr.live[d.epoch] = la
	if d.epoch > cr.attempts {
		cr.attempts = d.epoch
	}
	ts.free--
	rec := Record{Event: EventLease, Cell: cr.cell.ID, Attempt: d.epoch, Transport: ts.t.Name()}
	if aa, ok := ts.t.(interface{ AgentAddr() string }); ok {
		rec.Agent = aa.AgentAddr()
	}
	if d.rejoin {
		rec.Cause = "re-attached to open agent lease on resume"
	}
	if err := c.journal.Append(rec); err != nil {
		acancel()
		return err
	}
	verb := "leased"
	if d.rescue {
		verb = "rescue-dispatched"
	} else if d.rejoin {
		verb = "re-attached"
	}
	fmt.Fprintf(c.opts.Log, "fleet: cell %s: attempt %d %s on %s\n", cr.cell.ID, d.epoch, verb, ts.t.Name())
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer acancel()
		done <- c.runAttempt(actx, parent, d, la, freed)
	}()
	return nil
}

// nextWakeIn is how long the scheduler can sleep before something could
// become dispatchable: a cell leaving backoff, a transport leaving
// cooldown, or a live attempt crossing the straggler deadline.
func (c *Coordinator) nextWakeIn(now time.Time) (time.Duration, bool) {
	var best time.Duration
	found := false
	consider := func(d time.Duration) {
		if d < 0 {
			d = 0
		}
		if !found || d < best {
			best, found = d, true
		}
	}
	pendingIdle := false
	for _, cr := range c.cells {
		if cr.status != StatusPending {
			continue
		}
		if len(cr.live) == 0 {
			pendingIdle = true
			if cr.readyAt.After(now) {
				consider(cr.readyAt.Sub(now))
			}
		}
		if c.opts.StragglerAfter > 0 && !cr.rescued && len(cr.live) == 1 {
			for _, la := range cr.live {
				consider(la.started.Add(c.opts.StragglerAfter).Sub(now))
			}
		}
	}
	if pendingIdle {
		for _, ts := range c.transports {
			if ts.usable() && ts.free > 0 && ts.cooldownUntil.After(now) {
				consider(ts.cooldownUntil.Sub(now))
			}
		}
		if c.opts.Registry != nil {
			// A new member may register while cells wait; wake to merge the
			// roster at the heartbeat cadence.
			consider(c.opts.Registry.HeartbeatEvery())
		}
	}
	return best, found
}

// settle applies one attempt's outcome to the cell state and journal. An
// attempt whose Run failed gets its slot back here, in the same loop turn
// as the cooldown bookkeeping below, so a failing transport cools down
// before it can be picked again; a clean Run handed its slot back already.
func (c *Coordinator) settle(r result) error {
	cr := r.cr
	delete(cr.live, r.epoch)
	if !r.freed {
		r.ts.free++
	}
	now := time.Now()
	place := func(rec Record) Record {
		rec.Transport = r.ts.t.Name()
		if aa, ok := r.ts.t.(interface{ AgentAddr() string }); ok {
			rec.Agent = aa.AgentAddr()
		}
		return rec
	}
	switch r.out {
	case outCompleted:
		r.ts.noteSuccess()
		if cr.status == StatusCompleted {
			// A sibling already won; the idempotent accept discarded this
			// copy. Nothing to journal, nothing to charge.
			return nil
		}
		cr.status = StatusCompleted
		if r.rescue {
			c.rescues++
		}
		// First verified result wins: supersede any sibling attempts.
		for _, other := range cr.live {
			other.superseded.Store(true)
			other.cancel()
		}
		fmt.Fprintf(c.opts.Log, "fleet: cell %s: completed and verified (attempt %d on %s)\n", cr.cell.ID, r.epoch, r.ts.t.Name())
		return c.journal.Append(place(Record{Event: EventComplete, Cell: cr.cell.ID, Attempt: r.epoch}))
	case outCanceled, outSuperseded:
		// Interrupted by shutdown or beaten by a sibling, not the cell's
		// fault: no failure charged; the open lease replays as pending
		// (shutdown) or is cleared by the sibling's completion record.
		return nil
	case outAuthRejected:
		// Wrong fleet secret on this agent: disable the transport for the
		// rest of the run (no retry can fix a config error) and re-place
		// the cell elsewhere, nothing charged — no work was started.
		r.ts.disabled = true
		if err := c.journal.Append(place(Record{Event: EventUndispatched, Cell: cr.cell.ID, Attempt: r.epoch,
			Cause: r.cause})); err != nil {
			return err
		}
		fmt.Fprintf(c.opts.Log, "fleet: transport %s disabled: agent rejected fleet credentials (%s)\n", r.ts.t.Name(), r.cause)
		cr.readyAt = now
		return nil
	case outUndispatched:
		// The attempt never started anywhere: re-place without charging a
		// failed attempt, cool the transport down, and cap the free
		// re-placements so an unplaceable cell cannot livelock the run.
		r.ts.noteFailure(now, c.opts.BackoffBase)
		cr.noDispatch++
		if err := c.journal.Append(place(Record{Event: EventUndispatched, Cell: cr.cell.ID, Attempt: r.epoch,
			Cause: r.cause})); err != nil {
			return err
		}
		fmt.Fprintf(c.opts.Log, "fleet: cell %s: attempt %d undispatched (%s); re-placing\n", cr.cell.ID, r.epoch, r.cause)
		if cr.noDispatch >= 3*c.opts.MaxAttempts {
			cr.noDispatch = 0
			return c.charge(r, now, "dispatch failed repeatedly: "+r.cause, "")
		}
		cr.readyAt = now.Add(c.backoff(cr.fails + 1))
		return nil
	case outFailed, outReclaimed:
		if r.out == outReclaimed {
			r.ts.noteFailure(now, c.opts.BackoffBase)
		}
		if cr.status == StatusCompleted {
			// A sibling won while this attempt was failing; the cell is
			// done and the journal already says so.
			return nil
		}
		ev := EventFail
		if r.out == outReclaimed {
			ev = EventReclaim
		}
		if err := c.journal.Append(place(Record{Event: ev, Cell: cr.cell.ID, Attempt: r.epoch,
			Cause: r.cause, StderrTail: r.tail})); err != nil {
			return err
		}
		return c.charge(r, now, r.cause, r.tail)
	}
	return nil
}

// charge books one failed attempt: quarantine when the budget is spent
// and no sibling attempt is still running, else schedule the retry.
func (c *Coordinator) charge(r result, now time.Time, cause, tail string) error {
	cr := r.cr
	cr.fails++
	cr.cause = cause
	cr.tail = tail
	if cr.fails >= c.opts.MaxAttempts {
		if len(cr.live) > 0 {
			// A rescue attempt is still in flight; it gets to finish. If
			// it also fails, its settle lands here with no siblings left.
			return nil
		}
		cr.status = StatusQuarantined
		fmt.Fprintf(c.opts.Log, "fleet: cell %s: quarantined after %d failures: %s\n", cr.cell.ID, cr.fails, cause)
		return c.journal.Append(Record{Event: EventQuarantine, Cell: cr.cell.ID, Attempt: r.epoch,
			Cause: fmt.Sprintf("%d failed attempts; last: %s", cr.fails, cause), StderrTail: tail})
	}
	cr.readyAt = now.Add(c.backoff(cr.fails))
	fmt.Fprintf(c.opts.Log, "fleet: cell %s: attempt %d failed (%s); retrying\n", cr.cell.ID, r.epoch, cause)
	return nil
}

// backoff is the deterministic retry delay: base × 2^(fails-1), capped.
func (c *Coordinator) backoff(fails int) time.Duration {
	d := c.opts.BackoffBase
	for i := 1; i < fails && d < 32*c.opts.BackoffBase; i++ {
		d *= 2
	}
	return d
}

func (c *Coordinator) allTerminal() bool {
	for _, cr := range c.cells {
		if cr.status == StatusPending {
			return false
		}
	}
	return true
}

// runAttempt executes one attempt on its transport and classifies the
// result. It owns the lease watchdog: the transport feeds liveness
// signals into the lease via beat, and heartbeat silence past the TTL
// reclaims the attempt by cancelling its context — which kills a local
// subprocess's process group or abandons (and aborts) a remote run. Once
// Run returns cleanly the attempt is done with its slot, which goes back
// through freed before the acceptance checks run.
func (c *Coordinator) runAttempt(ctx, parent context.Context, d dispatch, la *liveAttempt, freed chan<- *transportState) result {
	cr, epoch, ts := d.cr, d.epoch, d.ts
	id := cr.cell.ID
	slotFreed := false
	res := func(out outcome, cause, tail string) result {
		return result{cr: cr, epoch: epoch, ts: ts, rescue: d.rescue, out: out, cause: cause, tail: tail, freed: slotFreed}
	}
	workDir := filepath.Join(c.runDir, WorkDirName, fmt.Sprintf("%s.attempt-%d", id, epoch))
	discard := func() { _ = os.RemoveAll(workDir) }
	if err := os.RemoveAll(workDir); err != nil {
		return res(outFailed, err.Error(), "")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return res(outFailed, err.Error(), "")
	}
	a := Attempt{
		Cell:          cr.cell,
		Epoch:         epoch,
		Heartbeat:     c.opts.Heartbeat,
		CheckpointDir: filepath.Join(c.runDir, CheckpointsDirName, id),
	}
	if c.opts.WorkerEnv != nil {
		a.Env = c.opts.WorkerEnv(cr.cell, epoch)
	}
	ls := la.lease
	beat := func() { ls.beat(epoch, time.Now()) }

	// Watchdog: reclaim on liveness silence by cancelling the attempt.
	watchStop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(c.opts.LeaseTTL / 4)
		defer tick.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				if ls.expired(time.Now(), c.opts.LeaseTTL) && ls.reclaim() {
					la.cancel()
					return
				}
			}
		}
	}()

	err := ts.t.Run(ctx, a, workDir, beat)
	close(watchStop)
	watch.Wait()

	abortRemote := func() {
		if ab, ok := ts.t.(aborter); ok {
			ab.Abort(id, epoch)
		}
	}
	if err != nil {
		discard()
		switch {
		case la.superseded.Load():
			abortRemote()
			return res(outSuperseded, "", "")
		case ls.wasReclaimed():
			abortRemote()
			return res(outReclaimed, "lease expired: no heartbeat within deadline", "")
		case parent.Err() != nil:
			return res(outCanceled, "", "")
		case errors.Is(err, ErrAuthRejected):
			return res(outAuthRejected, err.Error(), "")
		case errors.Is(err, ErrUndispatched):
			return res(outUndispatched, err.Error(), "")
		default:
			var ae *AttemptError
			if errors.As(err, &ae) {
				return res(outFailed, ae.Cause, ae.Tail)
			}
			return res(outFailed, err.Error(), "")
		}
	}

	// Clean return: the local subprocess has exited, or the agent's result
	// is fetched and acked, so the slot can take the next cell while this
	// goroutine checks the output.
	freed <- ts
	slotFreed = true
	if preAccept != nil {
		preAccept(id)
	}

	// Acceptance is gated on the coordinator's own checks, whoever staged
	// the directory. Corrupt output is a retryable failure, never merged.
	if problems, err := report.VerifyDir(workDir); err != nil || len(problems) > 0 {
		cause := "output failed verification"
		if err != nil {
			cause += ": " + err.Error()
		} else {
			cause += fmt.Sprintf(": %d problem(s), first: %s", len(problems), problems[0])
		}
		discard()
		return res(outFailed, cause, "")
	}
	// The staged summary must record exactly this cell: a stale agent
	// scratch dir for a same-ID cell of another grid must not slip in.
	if !publishedCellMatches(workDir, cr.cell) {
		discard()
		return res(outFailed, "staged artifacts record a different cell spec", "")
	}
	if cr.cell.DumpDataset {
		if err := dsio.CheckDir(workDir); err != nil {
			discard()
			return res(outFailed, "dataset failed verification: "+err.Error(), "")
		}
	}
	if err := c.accept(id, workDir); err != nil {
		discard()
		return res(outFailed, "accept: "+err.Error(), "")
	}
	// The cell is published; its local checkpoints are no longer needed.
	_ = os.RemoveAll(filepath.Join(c.runDir, CheckpointsDirName, id))
	return res(outCompleted, "", "")
}

// accept atomically publishes a verified attempt directory as the cell's
// final artifact directory. It is idempotent: if a verified directory is
// already published (a double completion — the same cell accepted twice,
// or an adoption racing a late attempt), the new copy is discarded and the
// existing one stands.
func (c *Coordinator) accept(id, workDir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	final := filepath.Join(c.runDir, CellsDirName, id)
	if _, err := os.Stat(final); err == nil {
		if dirVerifies(final) {
			return os.RemoveAll(workDir)
		}
		// A corrupt earlier publication loses to the freshly verified one.
		if err := os.RemoveAll(final); err != nil {
			return err
		}
	}
	if err := os.Rename(workDir, final); err != nil {
		return err
	}
	// Fsync the parent so the publish survives power loss, mirroring
	// atomicio's rename rule.
	dirf, err := os.Open(filepath.Join(c.runDir, CellsDirName))
	if err != nil {
		return err
	}
	defer dirf.Close()
	return dirf.Sync()
}

func jsonMarshalIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
