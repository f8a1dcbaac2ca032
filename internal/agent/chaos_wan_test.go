// Real-network hardening chaos: the coordinator driving agents with the
// full production posture on — shared-secret HMAC on every RPC, TLS on
// the wire, dynamic registration — through WAN-grade faults: mid-transfer
// cuts at seeded byte offsets, throttled drip-fed bodies, duplicated
// (replayed) deliveries, flapping links, and an agent kill/restart. The
// run must converge to the byte-identical corpus of an undisturbed run
// with zero quarantined cells, and the fleet secret must never reach the
// journal. `make chaos-wan` runs this file under -race.

package agent

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/faults"
	"github.com/ethpbs/pbslab/internal/fleet"
	"github.com/ethpbs/pbslab/internal/serve"
)

// testTLSConfig mints a self-signed ECDSA P-256 certificate for 127.0.0.1
// and returns the agent-side TLS config plus the root pool a coordinator
// pins to verify it — the private-CA deployment from the README, in
// miniature.
func testTLSConfig(t testing.TB) (*tls.Config, *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "pbslab-test-agent"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	cfg := &tls.Config{Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}}}
	return cfg, pool
}

// startWANAgent is startLiveAgent with the production posture: every API
// request must carry the fleet secret's HMAC, and with tlsCfg the agent
// serves HTTPS.
func startWANAgent(t testing.TB, addr string, capacity int, secret []byte, tlsCfg *tls.Config) *liveAgent {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 40; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	if tlsCfg != nil {
		ln = tls.NewListener(ln, tlsCfg)
	}
	ag, err := New(Config{
		Executable: testExecutable(t),
		Scratch:    t.TempDir(),
		Capacity:   capacity,
		RetryAfter: 50 * time.Millisecond,
		Secret:     secret,
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

// wanTransport wraps an agent transport in the WAN fault injector with a
// TLS-verifying base — faults fire above the encrypted connection, exactly
// where a real middlebox or flaky link would.
func wanTransport(spec fleet.AgentSpec, inj *faults.Injector, seed uint64, pool *x509.CertPool) *fleet.AgentTransport {
	tr := fleet.NewAgentTransport(spec)
	tr.Seed = seed
	tr.Timeout = 5 * time.Second
	base := &http.Transport{TLSClientConfig: &tls.Config{RootCAs: pool}}
	tr.HTTP = &http.Client{Transport: &faults.Transport{Base: base, Inj: inj, Relay: spec.Addr}}
	return tr
}

// assertJournalFreeOfSecret greps the raw journal bytes for the fleet
// secret in both its raw and hex spellings — the grep-proof the threat
// model promises for an artifact that lands on shared disks.
func assertJournalFreeOfSecret(t *testing.T, dir string, secret []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, fleet.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) || bytes.Contains(raw, []byte(hex.EncodeToString(secret))) {
		t.Error("journal contains the fleet secret")
	}
}

// TestFleetWANChaosConvergesWithAuthAndTLS is the flagship hardened-fleet
// case: local + two HTTPS agents, HMAC on every RPC, one link flapping
// and replaying deliveries, the other cutting transfers mid-body and
// throttling what survives, plus an agent kill/restart. Convergence must
// be byte-identical to an undisturbed run with zero quarantined cells,
// and the resumable-fetch ledger must show real bytes moved.
func TestFleetWANChaosConvergesWithAuthAndTLS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host WAN chaos run")
	}
	g := chaosGrid("wan-chaos", true, 61, 62)

	refDir := t.TempDir()
	refOpts := chaosOpts(t)
	refOpts.Workers = 2
	runFleet(t, refDir, g, refOpts, false)
	want := readTree(t, filepath.Join(refDir, fleet.MergedDirName))

	secret := []byte("wan-fleet-shared-secret")
	tlsCfg, pool := testTLSConfig(t)
	a1 := startWANAgent(t, "127.0.0.1:0", 1, secret, tlsCfg)
	a2 := startWANAgent(t, "127.0.0.1:0", 1, secret, tlsCfg)

	const seed = 11
	inj := faults.NewInjector(seed)
	// Agent 1: duplicated deliveries (replay pressure on the nonce cache —
	// the client must re-sign, not give up) behind a flapping link.
	cfg1 := faults.WANPlan(seed, a1.addr)
	cfg1.DuplicateProb = 0.2
	cfg1.Outages = faults.Flap(time.Now().Add(800*time.Millisecond), 300*time.Millisecond, 250*time.Millisecond, 2)
	inj.SetConfig(a1.addr, cfg1)
	// Agent 2: a cutting, congested link — artifact transfers die at a
	// seeded byte offset and must resume from the banked prefix.
	cfg2 := faults.WANPlan(seed, a2.addr)
	cfg2.CutProb = 0.35
	cfg2.CutAfterBytes = 32 << 10
	cfg2.ThrottleProb = 0.2
	cfg2.ThrottleChunk = 16 << 10
	cfg2.ThrottleDelay = time.Millisecond
	inj.SetConfig(a2.addr, cfg2)

	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(t)
	opts.MaxAttempts = 5 // chaos headroom; the outcome must not need it all
	opts.Secret = secret
	opts.Transports = []fleet.Transport{
		&fleet.LocalTransport{Executable: testExecutable(t), Slots: 1},
		wanTransport(fleet.AgentSpec{Addr: a1.addr, Capacity: 1, TLS: true}, inj, seed, pool),
		wanTransport(fleet.AgentSpec{Addr: a2.addr, Capacity: 1, TLS: true}, inj, seed, pool),
	}

	// Agent 2 crashes mid-run; a fresh incarnation (same address, same
	// credentials, empty state) takes over and must be re-used.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(900 * time.Millisecond)
		a2.kill()
		time.Sleep(300 * time.Millisecond)
		startWANAgent(t, a2.addr, 1, secret, tlsCfg)
	}()

	dir := t.TempDir()
	c, err := fleet.NewCoordinator(dir, g, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-killed

	if len(sum.Quarantined) != 0 {
		t.Fatalf("WAN chaos run quarantined %d cells: %+v", len(sum.Quarantined), sum.Quarantined)
	}
	if sum.Completed != len(cells) {
		t.Fatalf("WAN chaos run completed %d/%d cells", sum.Completed, len(cells))
	}
	assertSameTree(t, want, readTree(t, filepath.Join(dir, fleet.MergedDirName)))

	st := c.Ledger().Stats()
	t.Logf("transfer ledger: wire=%d resumed=%d ranged=%d restarts=%d",
		st.WireBytes, st.ResumedBytes, st.RangedRequests, st.Restarts)
	if st.WireBytes == 0 {
		t.Error("transfer ledger saw no artifact bytes; the agents never served a fetch")
	}
	assertJournalFreeOfSecret(t, dir, secret)
}

// TestFleetDynamicRegistrationEndToEnd: no static agent list at all — the
// agent announces itself to the coordinator's authenticated registry,
// heartbeats to stay a member, and the agents-only run lands every cell
// on it; the join is journaled for resume.
func TestFleetDynamicRegistrationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host registration run")
	}
	secret := []byte("dyn-reg-secret")
	reg := fleet.NewRegistry(serve.NewAuthenticator(secret), 100*time.Millisecond)
	regSrv := httptest.NewServer(reg)
	t.Cleanup(regSrv.Close)

	la := startWANAgent(t, "127.0.0.1:0", 2, secret, nil)
	rg := &Registrar{
		Coordinator: regSrv.URL,
		Self:        fleet.RegisterRequest{Addr: la.addr, Capacity: 2, Version: "test"},
		Auth:        serve.NewAuthenticator(secret),
	}
	ctx, cancel := context.WithCancel(context.Background())
	regDone := make(chan struct{})
	go func() { defer close(regDone); rg.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-regDone })

	g := chaosGrid("dyn-reg", false, 71)
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(t)
	opts.Workers = 0 // agents-only: every cell must land on the registered agent
	opts.Secret = secret
	opts.Registry = reg

	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	if sum.Completed != len(cells) || len(sum.Quarantined) != 0 {
		t.Fatalf("registered-agent run completed %d/%d, quarantined %d", sum.Completed, len(cells), len(sum.Quarantined))
	}

	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined, leases := false, 0
	for _, rec := range recs {
		switch rec.Event {
		case fleet.EventAgentJoin:
			if rec.Agent == la.addr {
				joined = true
			}
		case fleet.EventLease:
			leases++
			if rec.Agent != la.addr {
				t.Errorf("lease on %q, want every lease on the registered agent %q", rec.Agent, la.addr)
			}
		}
	}
	if !joined {
		t.Error("registered agent's join was never journaled")
	}
	if leases == 0 {
		t.Error("no lease ever placed on the registered agent")
	}
	assertJournalFreeOfSecret(t, dir, secret)
}

// TestFleetDuplicateDeliveryIdempotentJoin: every request is delivered
// twice (faults.Transport duplicate mode — the coordinator always sees
// the second delivery's response). Duplicated dispatches must join the
// running attempt rather than fork a second worker, and every downstream
// RPC must tolerate its echo; exactly one completion per cell.
func TestFleetDuplicateDeliveryIdempotentJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host duplicate-delivery run")
	}
	la := startLiveAgent(t, "127.0.0.1:0", 2)
	const seed = 3
	inj := faults.NewInjector(seed)
	inj.SetConfig(la.addr, faults.Config{DuplicateProb: 1})

	g := chaosGrid("dup-join", false, 81)
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(t)
	opts.Transports = []fleet.Transport{
		faultyTransport(fleet.AgentSpec{Addr: la.addr, Capacity: 2}, inj, seed),
	}

	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	if sum.Completed != len(cells) || len(sum.Quarantined) != 0 {
		t.Fatalf("duplicate-delivery run completed %d/%d, quarantined %d", sum.Completed, len(cells), len(sum.Quarantined))
	}
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
			t.Errorf("cell %s journaled %d completions under duplication, want exactly 1", cell, n)
		}
	}
	la.ag.mu.Lock()
	held := len(la.ag.runs)
	la.ag.mu.Unlock()
	if held != 0 {
		t.Errorf("agent still holds %d runs after acked completion; a duplicate forked a second worker", held)
	}
}

// TestFleetDrainReroutesWithoutCharge: a draining agent's 503 + draining
// marker must re-place the cell on another transport without burning a
// retry — no fail, no reclaim, no quarantine, just an undispatched record
// naming the drain.
func TestFleetDrainReroutesWithoutCharge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host drain run")
	}
	la := startLiveAgent(t, "127.0.0.1:0", 2)
	la.ag.draining.Store(true)

	g := chaosGrid("drain-reroute", false, 91)
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOpts(t)
	// The draining agent is listed first so the scheduler tries it first.
	opts.Transports = []fleet.Transport{
		fleet.NewAgentTransport(fleet.AgentSpec{Addr: la.addr, Capacity: 2}),
		&fleet.LocalTransport{Executable: testExecutable(t), Slots: 2},
	}

	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	if sum.Completed != len(cells) || len(sum.Quarantined) != 0 {
		t.Fatalf("drain run completed %d/%d, quarantined %d", sum.Completed, len(cells), len(sum.Quarantined))
	}
	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rerouted := false
	for _, rec := range recs {
		switch rec.Event {
		case fleet.EventUndispatched:
			if strings.Contains(rec.Cause, "draining") {
				rerouted = true
			}
		case fleet.EventFail, fleet.EventReclaim, fleet.EventQuarantine:
			t.Errorf("drain charged the cell: %s %s attempt %d: %s", rec.Event, rec.Cell, rec.Attempt, rec.Cause)
		}
	}
	if !rerouted {
		t.Error("no undispatched record names the drain; the 503 was treated as a plain failure")
	}
}

// TestFleetWrongSecretAgentDisabledNeverDispatched: an agent holding a
// different secret rejects the coordinator's signature with a terminal
// 401. The coordinator must treat that as a config error — disable the
// transport after the first rejection, never dispatch there again, and
// finish the run elsewhere without charging the cell.
func TestFleetWrongSecretAgentDisabledNeverDispatched(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-host wrong-secret run")
	}
	la := startWANAgent(t, "127.0.0.1:0", 2, []byte("the-agents-real-secret"), nil)

	g := &fleet.Grid{
		Name:         "wrong-secret",
		Seeds:        []uint64{95},
		Days:         2,
		BlocksPerDay: 6,
		Users:        80,
		Validators:   120,
		PrivateFlow:  []float64{0.06},
	}
	opts := chaosOpts(t)
	opts.Secret = []byte("a-mistyped-fleet-secret")
	// The wrong-secret agent is listed first so it is tried first.
	opts.Transports = []fleet.Transport{
		fleet.NewAgentTransport(fleet.AgentSpec{Addr: la.addr, Capacity: 2}),
		&fleet.LocalTransport{Executable: testExecutable(t), Slots: 1},
	}

	dir := t.TempDir()
	sum := runFleet(t, dir, g, opts, false)
	if sum.Completed != 1 || len(sum.Quarantined) != 0 {
		t.Fatalf("wrong-secret run completed %d/1, quarantined %d", sum.Completed, len(sum.Quarantined))
	}
	recs, err := fleet.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	agentLeases, rejected := 0, false
	for _, rec := range recs {
		switch rec.Event {
		case fleet.EventLease:
			if rec.Agent == la.addr {
				agentLeases++
			}
		case fleet.EventUndispatched:
			if strings.Contains(rec.Cause, "rejected credentials") {
				rejected = true
			}
		case fleet.EventFail, fleet.EventQuarantine:
			t.Errorf("auth rejection charged the cell: %s %s: %s", rec.Event, rec.Cell, rec.Cause)
		}
	}
	if !rejected {
		t.Error("no undispatched record names the credentials rejection")
	}
	if agentLeases > 1 {
		t.Errorf("coordinator dispatched to the wrong-secret agent %d times, want at most 1 (disabled after the first 401)", agentLeases)
	}
	// The agent never ran (and never held) anything for the impostor.
	la.ag.mu.Lock()
	held := len(la.ag.runs)
	la.ag.mu.Unlock()
	if held != 0 {
		t.Errorf("wrong-secret agent holds %d runs; the 401 never stopped the dispatch", held)
	}
}

// TestAgentAuthRejectsUnsignedAndScrubsReplies: with a secret configured,
// unsigned API requests bounce with 401 + a terminal marker while
// /healthz stays open, signed requests work, and every reply path scrubs
// the secret from causes and stderr tails.
func TestAgentAuthRejectsUnsignedAndScrubsReplies(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess agent run")
	}
	secret := []byte("agent-scrub-secret")
	auth := serve.NewAuthenticator(secret)
	la := startWANAgent(t, "127.0.0.1:0", 2, secret, nil)
	cell := tinyCells(t, "scrub", 19)[0]

	// Unsigned dispatch: terminal 401 (not a retryable stale/replay).
	resp := postRun(t, la.addr, cell, 1)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned dispatch: got %d, want 401", resp.StatusCode)
	}
	if m := resp.Header.Get(serve.AuthErrorHeader); serve.AuthRetryable(m) || m == "" {
		t.Fatalf("unsigned dispatch marker %q, want a terminal marker", m)
	}
	// Liveness probing needs no credentials.
	hz, err := http.Get("http://" + la.addr + fleet.AgentPathHealth)
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz with auth on: got %d, want 200", hz.StatusCode)
	}

	// A signed dispatch is accepted and runs to completion.
	body, _ := json.Marshal(fleet.RunRequest{Cell: cell, Epoch: 1, Heartbeat: 50 * time.Millisecond})
	req, err := http.NewRequest(http.MethodPost, "http://"+la.addr+fleet.AgentPathRun, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.Sign(req, body); err != nil {
		t.Fatal(err)
	}
	signed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	signed.Body.Close()
	if signed.StatusCode != http.StatusAccepted {
		t.Fatalf("signed dispatch: got %d, want 202", signed.StatusCode)
	}
	// Follow it to completion through the signed client (and stop the
	// worker from racing the scratch dir's cleanup).
	tr := fleet.NewAgentTransport(fleet.AgentSpec{Addr: la.addr, Capacity: 2})
	tr.Auth = auth
	deadline := time.Now().Add(2 * time.Minute)
	for done := false; !done; {
		if time.Now().After(deadline) {
			t.Fatal("signed run never finished")
		}
		reply, err := tr.Status(context.Background())
		if err != nil {
			t.Fatalf("signed status: %v", err)
		}
		for _, rs := range reply.Runs {
			if rs.Cell == cell.ID && rs.Epoch == 1 && rs.Done {
				done = true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Reply scrubbing: any cause or stderr tail an agent reports has the
	// secret (raw and hex) replaced before it goes on the wire.
	st := la.ag.scrub(fleet.AgentRunStatus{
		Cause:      "exec failed: PBS_FLEET_SECRET=" + string(secret),
		StderrTail: "dump: " + hex.EncodeToString(secret),
	})
	for _, s := range []string{st.Cause, st.StderrTail} {
		if strings.Contains(s, string(secret)) || strings.Contains(s, hex.EncodeToString(secret)) {
			t.Errorf("scrubbed reply still contains the secret: %q", s)
		}
		if !strings.Contains(s, "[redacted]") {
			t.Errorf("scrubbed reply lost the redaction marker: %q", s)
		}
	}
}
