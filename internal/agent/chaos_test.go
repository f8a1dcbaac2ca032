// Multi-host chaos: the fleet coordinator driving real agents over real
// sockets through an adversarial network — seeded drops, delays, sheds,
// truncated and duplicated deliveries, a hard partition, an agent
// kill/restart, an injected straggler, and a stale-epoch publication —
// must converge to the byte-identical merged corpus of an uninterrupted
// single-host run, with zero quarantined cells.

package agent

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/faults"
	"github.com/ethpbs/pbslab/internal/fleet"
)

// chaosGrid is the shared tiny-but-real grid shape for multi-host runs.
func chaosGrid(name string, dump bool, seeds ...uint64) *fleet.Grid {
	return &fleet.Grid{
		Name:         name,
		Seeds:        seeds,
		Days:         2,
		BlocksPerDay: 6,
		Users:        80,
		Validators:   120,
		PrivateFlow:  []float64{0.06, 0.3},
		DumpDataset:  dump,
	}
}

func chaosOpts(t testing.TB) fleet.Options {
	t.Helper()
	return fleet.Options{
		MaxAttempts: 3,
		LeaseTTL:    5 * time.Second,
		Heartbeat:   50 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		Executable:  testExecutable(t),
	}
}

func runFleet(t testing.TB, dir string, g *fleet.Grid, opts fleet.Options, resume bool) *fleet.Summary {
	t.Helper()
	c, err := fleet.NewCoordinator(dir, g, opts, resume)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// readTree returns path→content for every regular file under dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameTree(t *testing.T, want, got map[string]string) {
	t.Helper()
	for path, content := range want {
		g, ok := got[path]
		if !ok {
			t.Errorf("merged corpus is missing %s", path)
			continue
		}
		if g != content {
			t.Errorf("merged corpus differs at %s", path)
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			t.Errorf("merged corpus has extra file %s", path)
		}
	}
}

// liveAgent is an agent on a real TCP listener that can be killed and
// restarted on the same address (fresh state: a crash loses the epoch
// floors and held runs, exactly like a real host reboot).
type liveAgent struct {
	t    testing.TB
	addr string
	srv  *http.Server
	ag   *Agent
}

func startLiveAgent(t testing.TB, addr string, capacity int) *liveAgent {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 40; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		// The previous incarnation's port may take a moment to free.
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	ag, err := New(Config{
		Executable: testExecutable(t),
		Scratch:    t.TempDir(),
		Capacity:   capacity,
		RetryAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: ag.Handler()}
	go func() { _ = srv.Serve(ln) }()
	la := &liveAgent{t: t, addr: ln.Addr().String(), srv: srv, ag: ag}
	t.Cleanup(la.kill)
	return la
}

// kill closes the listener and every open connection: in-flight RPCs and
// watch streams die with a transport error, like a pulled plug.
func (la *liveAgent) kill() { _ = la.srv.Close() }

func faultyTransport(spec fleet.AgentSpec, inj *faults.Injector, seed uint64) *fleet.AgentTransport {
	tr := fleet.NewAgentTransport(spec)
	tr.Seed = seed
	tr.Timeout = 5 * time.Second
	tr.HTTP = &http.Client{Transport: &faults.Transport{Inj: inj, Relay: spec.Addr}}
	return tr
}

// TestFleetAgentChaosConverges is the flagship multi-host chaos case:
// local + two remote agents under seeded network faults, a heartbeat
// partition, an agent kill/restart mid-run, and one injected straggler.
// The run must complete every cell (zero quarantined) and merge to the
// byte-identical corpus of an undisturbed single-host run — datasets
// included, so truncated artifact downloads are exercised end to end.
func TestFleetAgentChaosConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host chaos run")
	}
	g := chaosGrid("agent-chaos", true, 21, 22)

	refDir := t.TempDir()
	refOpts := chaosOpts(t)
	refOpts.Workers = 2
	runFleet(t, refDir, g, refOpts, false)
	want := readTree(t, filepath.Join(refDir, fleet.MergedDirName))

	a1 := startLiveAgent(t, "127.0.0.1:0", 1)
	a2 := startLiveAgent(t, "127.0.0.1:0", 1)

	const seed = 7
	inj := faults.NewInjector(seed)
	cfg1 := faults.NetPlan(seed, a1.addr)
	// Heartbeat partition: agent 1 goes dark for 1.2s mid-run — shorter
	// than the lease TTL, so reconnection (not reclaim) must absorb it.
	cfg1.Outages = []faults.Window{faults.Partition(time.Now().Add(800*time.Millisecond), 1200*time.Millisecond)}
	inj.SetConfig(a1.addr, cfg1)
	inj.SetConfig(a2.addr, faults.NetPlan(seed, a2.addr))

	local := &fleet.LocalTransport{Executable: testExecutable(t), Slots: 1}
	t1 := faultyTransport(fleet.AgentSpec{Addr: a1.addr, Capacity: 1}, inj, seed)
	t2 := faultyTransport(fleet.AgentSpec{Addr: a2.addr, Capacity: 1}, inj, seed)

	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	straggler := cells[0].ID
	opts := chaosOpts(t)
	opts.MaxAttempts = 5 // chaos headroom; the outcome must not need it all
	opts.StragglerAfter = 1500 * time.Millisecond
	opts.Transports = []fleet.Transport{local, t1, t2}
	// One cell's first attempt runs alive-but-slow: only the straggler
	// re-dispatch path can finish it promptly.
	opts.WorkerEnv = func(cell fleet.Cell, attempt int) []string {
		if cell.ID == straggler {
			pc := faults.ProcConfig{SlowMSPerSlot: 500, MaxAttempt: 1}
			return []string{faults.ProcEnv + "=" + pc.String()}
		}
		return nil
	}

	// Agent 2 crashes mid-run and a fresh incarnation takes over the same
	// address: held runs and epoch floors are lost, and the coordinator
	// must re-place whatever it had there.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(900 * time.Millisecond)
		a2.kill()
		time.Sleep(300 * time.Millisecond)
		startLiveAgent(t, a2.addr, 1)
	}()

	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	<-killed

	if len(sum.Quarantined) != 0 {
		t.Fatalf("chaos run quarantined %d cells: %+v", len(sum.Quarantined), sum.Quarantined)
	}
	if sum.Completed != len(cells) {
		t.Fatalf("chaos run completed %d/%d cells", sum.Completed, len(cells))
	}
	assertSameTree(t, want, readTree(t, filepath.Join(dir, fleet.MergedDirName)))
}

// TestFleetStaticAgentsOnly drives the `pbsfleet -workers 0 -agents` path:
// Options.Agents names one live agent and Workers is 0, so the coordinator
// builds the agent's transport itself and no local pool. Every cell must
// complete on the agent and merge byte-identical to a local run.
func TestFleetStaticAgentsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host run")
	}
	g := chaosGrid("static-agents", false, 41)

	refDir := t.TempDir()
	refOpts := chaosOpts(t)
	refOpts.Workers = 2
	runFleet(t, refDir, g, refOpts, false)
	want := readTree(t, filepath.Join(refDir, fleet.MergedDirName))

	ag := startLiveAgent(t, "127.0.0.1:0", 2)
	opts := chaosOpts(t)
	opts.Workers = 0
	opts.Agents = []fleet.AgentSpec{{Addr: ag.addr, Capacity: 2}}
	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	if sum.Completed != sum.Cells || len(sum.Quarantined) != 0 {
		t.Fatalf("agents-only run completed %d/%d cells, quarantined %+v", sum.Completed, sum.Cells, sum.Quarantined)
	}
	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	leases := 0
	for _, rec := range recs {
		if rec.Event != fleet.EventLease {
			continue
		}
		leases++
		if rec.Agent != ag.addr {
			t.Errorf("cell %s leased to transport %q, want the agent %s", rec.Cell, rec.Transport, ag.addr)
		}
	}
	if leases < sum.Cells {
		t.Fatalf("%d leases journaled for %d cells", leases, sum.Cells)
	}
	assertSameTree(t, want, readTree(t, filepath.Join(dir, fleet.MergedDirName)))
}

// TestFleetStragglerRescueIdempotent: every cell's first attempt is
// alive-but-slow, so every cell is double-dispatched; the first verified
// result wins, the loser is superseded without charge, and the outcome is
// byte-identical to an undisturbed run. Run under -race, the concurrent
// sibling settlement is the point.
func TestFleetStragglerRescueIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host straggler run")
	}
	g := chaosGrid("straggler", false, 31)

	refDir := t.TempDir()
	refOpts := chaosOpts(t)
	refOpts.Workers = 2
	runFleet(t, refDir, g, refOpts, false)
	want := readTree(t, filepath.Join(refDir, fleet.MergedDirName))

	ag := startLiveAgent(t, "127.0.0.1:0", 2)
	opts := chaosOpts(t)
	opts.StragglerAfter = 700 * time.Millisecond
	opts.Transports = []fleet.Transport{
		&fleet.LocalTransport{Executable: testExecutable(t), Slots: 2},
		fleet.NewAgentTransport(fleet.AgentSpec{Addr: ag.addr, Capacity: 2}),
	}
	opts.WorkerEnv = func(cell fleet.Cell, attempt int) []string {
		pc := faults.ProcConfig{SlowMSPerSlot: 600, MaxAttempt: 1}
		return []string{faults.ProcEnv + "=" + pc.String()}
	}

	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	if len(sum.Quarantined) != 0 {
		t.Fatalf("straggler run quarantined cells: %+v", sum.Quarantined)
	}
	if sum.StragglerRescues < 1 {
		t.Fatalf("no straggler rescue completed a cell (rescues=%d); the re-dispatch path never won", sum.StragglerRescues)
	}
	// Idempotence: exactly one completion per cell, no double publishes.
	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	completes := map[string]int{}
	for _, rec := range recs {
		if rec.Event == fleet.EventComplete {
			completes[rec.Cell]++
		}
	}
	for cell, n := range completes {
		if n != 1 {
			t.Errorf("cell %s journaled %d completions, want exactly 1", cell, n)
		}
	}
	assertSameTree(t, want, readTree(t, filepath.Join(dir, fleet.MergedDirName)))
}

// TestFleetAgentResumeReattachesOpenLease kills the coordinator
// mid-remote-dispatch and resumes: the journal's open agent lease is
// pinned and rejoined at the same epoch, the remote attempt's work is
// kept, and the merged corpus is byte-identical to an uninterrupted run —
// with no failure ever charged to the surviving cell.
func TestFleetAgentResumeReattachesOpenLease(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host resume run")
	}
	g := chaosGrid("agent-resume", false, 41)

	refDir := t.TempDir()
	refOpts := chaosOpts(t)
	refOpts.Workers = 2
	runFleet(t, refDir, g, refOpts, false)
	want := readTree(t, filepath.Join(refDir, fleet.MergedDirName))

	ag := startLiveAgent(t, "127.0.0.1:0", 1)
	dir := t.TempDir()
	mkOpts := func() fleet.Options {
		opts := chaosOpts(t)
		opts.Transports = []fleet.Transport{
			fleet.NewAgentTransport(fleet.AgentSpec{Addr: ag.addr, Capacity: 1}),
		}
		return opts
	}

	c, err := fleet.NewCoordinator(dir, g, mkOpts(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the coordinator the moment the first remote lease is journaled:
	// the attempt is in flight on the agent with no settled outcome.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer cancel()
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			recs, err := fleet.ReplayJournal(dir)
			if err == nil {
				for _, rec := range recs {
					if rec.Event == fleet.EventLease && rec.Agent != "" {
						return
					}
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	if _, err := c.Run(ctx); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	sum := runFleet(t, dir, g, mkOpts(), true)
	if len(sum.Quarantined) != 0 {
		t.Fatalf("resumed run quarantined cells: %+v", sum.Quarantined)
	}
	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	reattached := false
	for _, rec := range recs {
		switch rec.Event {
		case fleet.EventLease:
			if strings.Contains(rec.Cause, "re-attached") {
				reattached = true
			}
		case fleet.EventFail, fleet.EventReclaim, fleet.EventQuarantine:
			t.Errorf("resume charged the interrupted cell: %s %s attempt %d: %s", rec.Event, rec.Cell, rec.Attempt, rec.Cause)
		}
	}
	if !reattached {
		t.Error("resume never re-attached to the open agent lease")
	}
	assertSameTree(t, want, readTree(t, filepath.Join(dir, fleet.MergedDirName)))
}

// TestFleetStalePublishRejectedAndJournaled: an agent is left holding a
// finished result for an epoch the journal has since failed (a reclaimed
// attempt that kept running through a partition). Resume must fence it —
// journal a stale_publish record, abort the agent's copy, and re-run the
// cell fresh — never accept the orphan publication.
func TestFleetStalePublishRejectedAndJournaled(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host stale-publish run")
	}
	g := &fleet.Grid{
		Name:         "stale",
		Seeds:        []uint64{51},
		Days:         2,
		BlocksPerDay: 6,
		Users:        80,
		Validators:   120,
		PrivateFlow:  []float64{0.06},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]

	ag := startLiveAgent(t, "127.0.0.1:0", 1)
	// The agent runs (and finishes) epoch 1 — but the coordinator's
	// journal records that attempt as failed (reclaimed during a
	// partition), so the agent's held result is a zombie publication.
	if resp := postRun(t, ag.addr, cell, 1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dispatch: got %d, want 202", resp.StatusCode)
	}
	if st := waitDone(t, ag.addr, cell.ID, 1); !st.OK {
		t.Fatalf("agent run failed: %s", st.Cause)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	agentName := "agent:" + ag.addr
	j, err := fleet.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []fleet.Record{
		{Event: fleet.EventGrid, GridName: g.Name, Fingerprint: g.Fingerprint()},
		{Event: fleet.EventLease, Cell: cell.ID, Attempt: 1, Transport: agentName, Agent: ag.addr},
		{Event: fleet.EventReclaim, Cell: cell.ID, Attempt: 1, Cause: "lease expired: no heartbeat within deadline"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	opts := chaosOpts(t)
	opts.Transports = []fleet.Transport{
		&fleet.LocalTransport{Executable: testExecutable(t), Slots: 1},
		fleet.NewAgentTransport(fleet.AgentSpec{Addr: ag.addr, Capacity: 1}),
	}
	sum := runFleet(t, dir, g, opts, true)
	if sum.Completed != 1 || len(sum.Quarantined) != 0 {
		t.Fatalf("resume finished %d completed / %d quarantined, want 1/0", sum.Completed, len(sum.Quarantined))
	}

	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale, completedAt := 0, 0
	for _, rec := range recs {
		switch rec.Event {
		case fleet.EventStalePublish:
			stale++
			if rec.Cell != cell.ID || rec.Attempt != 1 || rec.Agent != ag.addr {
				t.Errorf("stale_publish record names %s attempt %d on %q, want %s attempt 1 on %q",
					rec.Cell, rec.Attempt, rec.Agent, cell.ID, ag.addr)
			}
		case fleet.EventComplete:
			completedAt = rec.Attempt
		}
	}
	if stale == 0 {
		t.Error("no stale_publish record journaled for the fenced agent result")
	}
	if completedAt < 2 {
		t.Errorf("cell completed at attempt %d, want a fresh attempt >= 2 (the stale epoch must not publish)", completedAt)
	}
	// The agent's zombie copy is gone: epoch 1 is fenced for good.
	ag.ag.mu.Lock()
	_, held := ag.ag.runs[cell.ID]
	floor := ag.ag.epochs[cell.ID]
	ag.ag.mu.Unlock()
	if held && floor <= 1 {
		t.Errorf("agent still holds cell %s with epoch floor %d; stale epoch was never fenced", cell.ID, floor)
	}
}
