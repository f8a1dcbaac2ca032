package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/faults"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/u256"
)

// TestAdmissionShedsDeterministically drives the controller through every
// rung by hand: one slot, one queue seat, and a third request that must be
// shed immediately.
func TestAdmissionShedsDeterministically(t *testing.T) {
	ad := NewAdmission(1, 1, 80*time.Millisecond, 3*time.Second)
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	h := ad.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	do := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
		return rec
	}

	// First request occupies the only slot.
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- do() }()
	<-entered

	// Second request takes the only queue seat and will wait there.
	secondDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { secondDone <- do() }()
	// Give it a moment to reach the queue (it cannot signal from inside).
	deadline := time.Now().Add(time.Second)
	for ad.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ad.Stats().Queued != 1 {
		t.Fatalf("second request not queued: %+v", ad.Stats())
	}

	// Third request: slot busy, queue full -> immediate 429.
	rec := do()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3 (rounded seconds)", ra)
	}

	// The queued request's wait budget expires -> 503, also with the hint.
	second := <-secondDone
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("503 shed lost its Retry-After header")
	}

	close(release)
	if first := <-firstDone; first.Code != http.StatusOK {
		t.Fatalf("admitted request: status %d, want 200", first.Code)
	}

	st := ad.Stats()
	if st.Total != 3 || st.Accepted != 1 || st.Shed429 != 1 || st.Shed503 != 1 {
		t.Fatalf("ledger wrong: %+v", st)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("gauges not back to zero: %+v", st)
	}
	if !ad.DrainWait(time.Second) {
		t.Fatal("drainWait timed out with no work in flight")
	}
}

// TestAdmissionQueuedRequestPromotedWhenSlotFrees is the happy queue path:
// a queued request must be admitted (not shed) once capacity frees in time.
func TestAdmissionQueuedRequestPromotedWhenSlotFrees(t *testing.T) {
	ad := NewAdmission(1, 4, 2*time.Second, time.Second)
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	h := ad.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
			done <- rec.Code
		}()
	}
	<-entered // one in, one queued
	deadline := time.Now().Add(time.Second)
	for ad.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release) // first finishes, queued one is promoted
	<-entered
	if a, b := <-done, <-done; a != http.StatusOK || b != http.StatusOK {
		t.Fatalf("statuses %d/%d, want both 200", a, b)
	}
	if st := ad.Stats(); st.Accepted != 2 || st.Shed429+st.Shed503 != 0 {
		t.Fatalf("ledger wrong: %+v", st)
	}
}

// TestServeOverloadShedsExcessButServesCapacity floods a capacity-1 server
// with concurrent traffic. Every response must be a full 200 with the exact
// on-disk artifact bytes, or an explicit shed (429/503) carrying
// Retry-After — never an error, a partial body, or a hang.
func TestServeOverloadShedsExcessButServesCapacity(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.Queue = 2
		c.QueueWait = 20 * time.Millisecond
		c.RetryAfter = 2 * time.Second
	})
	snap := s.Store().Current()
	disk, err := os.ReadFile(filepath.Join(snap.Dir, "fig04_pbs_share.csv"))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	type outcome struct {
		status int
		body   []byte
		retry  string
		err    error
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/artifacts/fig04_pbs_share.csv")
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			results[i] = outcome{
				status: resp.StatusCode,
				body:   body,
				retry:  resp.Header.Get("Retry-After"),
				err:    err,
			}
		}(i)
	}
	close(start)
	wg.Wait()

	var ok, shed int
	for i, r := range results {
		switch {
		case r.err != nil:
			t.Fatalf("client %d: transport error: %v", i, r.err)
		case r.status == http.StatusOK:
			ok++
			if !bytes.Equal(r.body, disk) {
				t.Fatalf("client %d: 200 body differs from disk", i)
			}
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			shed++
			if r.retry != "2" {
				t.Fatalf("client %d: shed %d without Retry-After=2 (got %q)", i, r.status, r.retry)
			}
		default:
			t.Fatalf("client %d: unexpected status %d", i, r.status)
		}
	}
	if ok == 0 {
		t.Fatal("overload starved every request; capacity should still be served")
	}

	var stats struct {
		Admission AdmissionStats `json:"admission"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	ad := stats.Admission
	if ad.Total != ad.Accepted+ad.Shed429+ad.Shed503 {
		t.Fatalf("ledger does not balance after overload: %+v", ad)
	}
	if got := int(ad.Shed429 + ad.Shed503); got != shed {
		t.Fatalf("server counted %d sheds, clients saw %d", got, shed)
	}
	t.Logf("overload: %d served, %d shed (%d×429 %d×503)", ok, shed, ad.Shed429, ad.Shed503)
}

// TestServeDrainLosesNoInflightResponses holds a request in flight (its
// body drip-fed over a raw socket), starts a drain mid-request, and proves
// the response still arrives complete before Drain returns.
func TestServeDrainLosesNoInflightResponses(t *testing.T) {
	dir := t.TempDir()
	buildDataDir(t, dir)
	s := NewServer(Config{DataDir: dir, RequestTimeout: 10 * time.Second})
	if err := s.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := fmt.Sprintf(`{"dir":%q}`, dir)
	fmt.Fprintf(conn, "POST /admin/reload HTTP/1.1\r\nHost: pbslabd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	half := len(body) / 2
	if _, err := conn.Write([]byte(body[:half])); err != nil {
		t.Fatal(err)
	}

	// The handler is now blocked reading the rest of the body: the request
	// is admitted and in flight. Wait until admission agrees, then drain.
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Stats().Inflight == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.adm.Stats().Inflight != 1 {
		t.Fatalf("request not in flight: %+v", s.adm.Stats())
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()

	// New connections must be refused almost immediately (listener closed)...
	time.Sleep(50 * time.Millisecond)
	if c2, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		c2.Close()
		// Shutdown closes the listener asynchronously; tolerate a dial that
		// sneaks in, but it must not be served.
	}

	// ...while the in-flight request finishes its body and gets a full answer.
	if _, err := conn.Write([]byte(body[half:])); err != nil {
		t.Fatalf("writing body tail during drain: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight response lost during drain: %v", err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("in-flight response truncated during drain: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload during drain: status %d, body %s", resp.StatusCode, payload)
	}
	var reload struct {
		Swapped bool `json:"swapped"`
	}
	if err := json.Unmarshal(payload, &reload); err != nil || !reload.Swapped {
		t.Fatalf("reload response incomplete: %s (%v)", payload, err)
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned error after drain: %v", err)
	}
	if st := s.adm.Stats(); st.Inflight != 0 {
		t.Fatalf("in-flight gauge nonzero after drain: %+v", st)
	}
}

// TestServeDrainUnderConcurrentLoad fires a wave of clients and drains in
// the middle of it: every client must see either a complete, byte-perfect
// response or a clean connection-level refusal — never a torn body.
func TestServeDrainUnderConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	buildDataDir(t, dir)
	s := NewServer(Config{DataDir: dir, MaxInflight: 8, Queue: 32})
	if err := s.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	disk, err := os.ReadFile(filepath.Join(dir, "fig06_hhi.csv"))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 48
	var wg sync.WaitGroup
	var mu sync.Mutex
	var complete, refused int
	started := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/artifacts/fig06_hhi.csv")
			if err != nil {
				mu.Lock()
				refused++ // dial/transport refusal: request never admitted
				mu.Unlock()
				return
			}
			select {
			case started <- struct{}{}:
			default:
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("response started but was torn mid-body: %v", err)
				return
			}
			if resp.StatusCode == http.StatusOK && !bytes.Equal(body, disk) {
				t.Error("drained 200 response is not byte-identical to disk")
				return
			}
			mu.Lock()
			complete++
			mu.Unlock()
		}()
	}
	// Drain only once at least one request has been answered: a fixed
	// sleep races the dial wave on a slow or loaded host, and losing that
	// race drains before anything was accepted (complete == 0).
	<-started
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain not clean: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve error: %v", err)
	}
	if complete == 0 {
		t.Fatal("no client completed; drain should finish accepted work")
	}
	t.Logf("drain under load: %d complete, %d refused cleanly", complete, refused)
}

// TestServeReloadSwapsVerifiedCandidate hot-swaps to a second verified
// directory and proves subsequent responses come from the new snapshot.
func TestServeReloadSwapsVerifiedCandidate(t *testing.T) {
	s, ts := newTestServer(t, nil)
	next := t.TempDir()
	note := []byte("generation two\n")
	buildDataDir(t, next, report.Artifact{Name: "release_note.txt", Data: note})

	resp, err := http.Post(ts.URL+"/admin/reload?dir="+next, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Swapped    bool   `json:"swapped"`
		Generation uint64 `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !out.Swapped || out.Generation != 2 {
		t.Fatalf("reload: status %d, out %+v, err %v", resp.StatusCode, out, err)
	}

	status, body, _ := get(t, ts.URL+"/artifacts/release_note.txt")
	if status != http.StatusOK || !bytes.Equal(body, note) {
		t.Fatalf("new snapshot not serving: status %d body %q", status, body)
	}
	if s.Store().Current().Generation != 2 {
		t.Fatal("generation did not advance")
	}
}

// TestServeReloadRejectsCorruptDirKeepsServing feeds the reload endpoint a
// deliberately damaged directory: the swap must be refused, the old
// snapshot must keep serving byte-identical data, and readiness must report
// the degradation.
func TestServeReloadRejectsCorruptDirKeepsServing(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, before, _ := get(t, ts.URL+"/artifacts/fig04_pbs_share.csv")

	bad := t.TempDir()
	buildDataDir(t, bad)
	if _, err := faults.CorruptDir(7, bad); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/admin/reload?dir="+bad, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: status %d, body %s", resp.StatusCode, raw)
	}

	// Old snapshot still serves, byte-identical.
	status, after, _ := get(t, ts.URL+"/artifacts/fig04_pbs_share.csv")
	if status != http.StatusOK || !bytes.Equal(before, after) {
		t.Fatal("serving changed after a rejected reload")
	}
	if s.Store().Current().Generation != 1 {
		t.Fatal("generation advanced on a rejected reload")
	}

	// Readiness degrades but names the failure.
	var ready struct {
		Ready bool   `json:"ready"`
		Store Status `json:"store"`
	}
	if status := getJSON(t, ts.URL+"/readyz", &ready); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after rejected reload: status %d", status)
	}
	if ready.Ready || !ready.Store.Degraded || !ready.Store.Serving || ready.Store.LastError == "" || ready.Store.Rejects != 1 {
		t.Fatalf("degradation not reported: %+v", ready)
	}

	// A good reload clears the degradation.
	good := t.TempDir()
	buildDataDir(t, good)
	resp, err = http.Post(ts.URL+"/admin/reload?dir="+good, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery reload: status %d", resp.StatusCode)
	}
	if status := getJSON(t, ts.URL+"/readyz", &ready); status != http.StatusOK || !ready.Ready {
		t.Fatal("readiness did not recover after a good reload")
	}
}

// TestServeReloadCancelledIsNotRejection: a reload whose caller gave up
// (client hang-up, expired request timeout) never judged the directory, so
// it must neither degrade readiness nor mark the manifest rejected for the
// poller, and a live reload afterwards swaps the directory in.
func TestServeReloadCancelledIsNotRejection(t *testing.T) {
	dir := t.TempDir()
	buildDataDir(t, dir)
	st := NewStore(LoadOptions{})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	for _, ctx := range []context.Context{cancelled, expired} {
		if _, err := st.Reload(ctx, dir); !errors.Is(err, ctx.Err()) {
			t.Fatalf("Reload = %v, want an error wrapping %v", err, ctx.Err())
		}
		if s := st.Status(); s.Degraded || s.Rejects != 0 {
			t.Fatalf("%v reload recorded as a rejection: %+v", ctx.Err(), s)
		}
		if !st.ShouldPoll(dir) {
			t.Fatalf("%v reload marked the manifest rejected", ctx.Err())
		}
	}

	snap, err := st.Reload(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Current() != snap || snap.Generation != 1 {
		t.Fatalf("live reload did not swap in: current %p, snap %p, generation %d", st.Current(), snap, snap.Generation)
	}
}

// TestServeReloadCancelledSkipsVerification: Load checks its context
// before report.VerifyDir, so a reload whose caller has already gone fails
// on the context even for a missing directory (not with "no manifest") and
// is not recorded; and it checks again before the corpus rung, so a caller
// that leaves while the directory is verified stops the load before any
// day segment is opened, validated or analysed.
func TestServeReloadCancelledSkipsVerification(t *testing.T) {
	st := NewStore(LoadOptions{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := st.Reload(cancelled, missing); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reload(cancelled, missing dir) = %v, want an error wrapping context.Canceled", err)
	}
	if s := st.Status(); s.Degraded || s.Rejects != 0 {
		t.Fatalf("cancelled reload recorded as a rejection: %+v", s)
	}

	dir := t.TempDir()
	buildDataDir(t, dir)
	ctx := &endsAfterChecks{Context: context.Background(), live: 1}
	_, err := Load(ctx, dir, LoadOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Load with a caller gone after the first check = %v, want an error wrapping context.Canceled", err)
	}
	if strings.Contains(err.Error(), "build analysis") {
		t.Fatalf("Load reached the analysis build before noticing its caller had gone: %v", err)
	}
}

// endsAfterChecks is a context whose first live Err calls report it live
// and every later one context.Canceled: a caller that leaves while the
// load is under way. Done never closes, so only explicit checks see it end.
type endsAfterChecks struct {
	context.Context
	live  int32
	calls atomic.Int32
}

func (c *endsAfterChecks) Err() error {
	if c.calls.Add(1) <= c.live {
		return nil
	}
	return context.Canceled
}

// TestServeReloadRejectsCorruptDataset covers the deepest rung: a directory
// whose files all match their manifest hashes, but whose serialized corpus
// violates dataset invariants. Only core.ValidateStream can catch it — and
// must.
func TestServeReloadRejectsCorruptDataset(t *testing.T) {
	a, _ := fixture(t)
	// Skim one block's stored tips: the writer encodes it, the receipts no
	// longer add up to it.
	src := fixRes.Dataset
	ds := &dataset.Dataset{
		Start: src.Start, End: src.End,
		MEVLabels: src.MEVLabels, MEVBySource: src.MEVBySource,
		Arrivals: src.Arrivals, Relays: src.Relays, Sanctions: src.Sanctions,
		Blocks: append([]*dataset.Block(nil), src.Blocks...),
	}
	var skimmed uint64
	for i, b := range ds.Blocks {
		if b.Tips.IsZero() {
			continue
		}
		cp := *b
		cp.Tips = cp.Tips.SatSub(u256.One)
		ds.Blocks[i], skimmed = &cp, b.Number
		break
	}
	if skimmed == 0 {
		t.Fatal("fixture has no block with tips to skim")
	}
	corpus, err := corpusArtifacts(ds, fixRes.World.BuilderLabels())
	if err != nil {
		t.Fatal(err)
	}
	bad := t.TempDir()
	if err := report.WriteAllExtraContext(context.Background(), a, bad, corpus...); err != nil {
		t.Fatal(err)
	}
	// The directory itself verifies clean — the damage is semantic.
	if problems, err := report.VerifyDir(bad); err != nil || len(problems) != 0 {
		t.Fatalf("fixture broken: VerifyDir found %d problems, err %v", len(problems), err)
	}

	s, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/admin/reload?dir="+bad, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid dataset accepted: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "validation") ||
		!strings.Contains(string(raw), fmt.Sprintf("block %d: recomputed tips", skimmed)) {
		t.Fatalf("rejection does not cite the skimmed block's validation: %s", raw)
	}
	if s.Store().Current().Generation != 1 {
		t.Fatal("generation advanced on invalid dataset")
	}
}

// TestServePanicIsolatedToOneRequest proves a panicking handler costs its
// own request a 500 and nothing else: the process, the other requests and
// the panic counter all behave.
func TestServePanicIsolatedToOneRequest(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// White-box: drive the real recovery middleware with a panicking inner
	// handler, exactly as a buggy endpoint would hit it.
	boom := s.recoverWrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("renderer exploded")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic surfaced as %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "renderer exploded") {
		t.Fatalf("500 body does not carry the cause: %s", rec.Body.String())
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.panics.Load())
	}

	// The daemon itself is unharmed.
	if status, _, _ := get(t, ts.URL+"/api/v1/meta"); status != http.StatusOK {
		t.Fatal("server unhealthy after an isolated panic")
	}
	var health struct {
		Panics uint64 `json:"panics"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Panics != 1 {
		t.Fatalf("healthz panics = %d, want 1", health.Panics)
	}

	// http.ErrAbortHandler must pass through untouched (and uncounted).
	abort := s.recoverWrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ErrAbortHandler was swallowed; net/http needs it to propagate")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	}()
	if s.panics.Load() != 1 {
		t.Fatalf("ErrAbortHandler was counted as a crash: %d", s.panics.Load())
	}
}

// dripBody yields its payload a byte at a time with a delay between bytes —
// a slow-loris request body from the client side.
type dripBody struct {
	data  []byte
	delay time.Duration
}

func (d *dripBody) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(d.delay)
	p[0] = d.data[0]
	d.data = d.data[1:]
	return 1, nil
}

// TestServeSlowLorisBodyIsBoundedWhileOthersServe sends a reload whose body
// arrives one byte every 25ms against a 150ms request timeout: the request
// must be terminated by the deadline, while concurrent fast requests keep
// being served normally.
func TestServeSlowLorisBodyIsBoundedWhileOthersServe(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 150 * time.Millisecond
	})

	lorisDone := make(chan int, 1)
	go func() {
		body := &dripBody{data: []byte(`{"dir":"/nowhere/slow"}`), delay: 25 * time.Millisecond}
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload", body)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			lorisDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lorisDone <- resp.StatusCode
	}()

	// While the loris drips, normal traffic flows.
	for i := 0; i < 5; i++ {
		if status, _, _ := get(t, ts.URL+"/api/v1/meta"); status != http.StatusOK {
			t.Fatalf("fast request %d failed during slow-loris: %d", i, status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case status := <-lorisDone:
		// The deadline fires as 503 (timeout middleware); a transport-level
		// cut (-1) is also a valid bound. What it must never do is succeed.
		if status == http.StatusOK {
			t.Fatal("slow-loris reload ran to completion; request deadline did not bind")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow-loris request still pending; nothing bounded it")
	}
}

// TestServeSeededFaultInjectionKeepsLedgerCoherent hammers the daemon
// through the faults middleware in server-plane mode (drip-fed bodies,
// partial writes, mid-response resets). The daemon must survive every
// injected fault, and any response that does arrive intact must be
// byte-identical to disk.
func TestServeSeededFaultInjectionKeepsLedgerCoherent(t *testing.T) {
	s, _ := newTestServer(t, nil)
	inj := faults.NewInjector(42)
	inj.SetConfig("serve", faults.Config{
		SlowBodyProb:  0.2,
		SlowBodyDelay: time.Millisecond,
		SlowBodyChunk: 4,

		PartialWriteProb: 0.2,
		ResetProb:        0.2,
	})
	at := time.Unix(1_700_000_000, 0)
	ts := httptest.NewServer(faults.Middleware(s.Handler(), inj, "serve", func() time.Time { return at }))
	defer ts.Close()

	dir := s.Store().Current().Dir
	disk, err := os.ReadFile(filepath.Join(dir, "fig04_pbs_share.csv"))
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 60
	var intact, damaged int
	for i := 0; i < rounds; i++ {
		resp, err := http.Get(ts.URL + "/artifacts/fig04_pbs_share.csv")
		if err != nil {
			damaged++ // injected reset before headers
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			damaged++ // injected reset/termination mid-body
			continue
		}
		if bytes.Equal(body, disk) {
			intact++
		} else {
			damaged++ // injected partial write: only the checksum knows
		}
	}
	if intact == 0 {
		t.Fatal("no request survived fault injection; mix too hot or server broken")
	}
	if damaged == 0 {
		t.Fatal("no fault observed; injection is not reaching the wire")
	}
	counts := inj.Stats().For("serve")
	if counts.Injected() == 0 {
		t.Fatal("injector recorded nothing")
	}
	// And the daemon is still fully healthy afterwards.
	direct := httptest.NewServer(s.Handler())
	defer direct.Close()
	status, body, _ := get(t, direct.URL+"/artifacts/fig04_pbs_share.csv")
	if status != http.StatusOK || !bytes.Equal(body, disk) {
		t.Fatal("daemon damaged by fault injection")
	}
	t.Logf("fault injection: %d intact, %d damaged, injected=%d", intact, damaged, counts.Injected())
}

// TestServePollerHotSwapsAndDedupsRejects runs the manifest poller against
// a directory that changes under it: a good change swaps in automatically;
// a broken manifest degrades once (not once per tick); restoring the
// directory recovers.
func TestServePollerHotSwapsAndDedupsRejects(t *testing.T) {
	dir := t.TempDir()
	buildDataDir(t, dir)
	s := NewServer(Config{DataDir: dir, ReloadPoll: 5 * time.Millisecond})
	if err := s.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Drain(context.Background())

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (status %+v)", what, s.Store().Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// 1. Regenerate the directory with an extra artifact: the manifest
	// fingerprint changes and the poller swaps generation 2 in by itself.
	buildDataDir(t, dir, report.Artifact{Name: "release_note.txt", Data: []byte("v2\n")})
	waitFor("automatic hot swap", func() bool { return s.Store().Status().Generation == 2 })

	// 2. Break the manifest: one artifact's recorded hash no longer matches.
	// It is replaced atomically, as the real writer does, so no poll reads
	// a truncated manifest between the two candidates.
	manifestPath := filepath.Join(dir, report.ManifestName)
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m report.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Artifacts[0].SHA256 = strings.Repeat("0", 64)
	broken, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicio.WriteFile(manifestPath, broken, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor("degradation after corrupt manifest", func() bool { return s.Store().Status().Degraded })
	if s.Store().Status().Generation != 2 {
		t.Fatal("corrupt candidate replaced the serving snapshot")
	}

	// 3. The same broken fingerprint must not be re-verified every tick.
	rejectsAfterFirst := s.Store().Status().Rejects
	time.Sleep(50 * time.Millisecond) // ~10 ticks
	if got := s.Store().Status().Rejects; got != rejectsAfterFirst {
		t.Fatalf("poller re-verified an already-rejected candidate: rejects %d -> %d", rejectsAfterFirst, got)
	}

	// 4. Restore a good directory: the poller recovers on its own.
	buildDataDir(t, dir, report.Artifact{Name: "release_note.txt", Data: []byte("v3\n")})
	waitFor("recovery swap", func() bool {
		st := s.Store().Status()
		return st.Generation == 3 && !st.Degraded
	})
}

// TestServeKillAndRestartServesIdenticalBytes drains one daemon and boots a
// fresh process-equivalent over the same directory: the restarted daemon
// must serve byte-identical artifacts — restart is invisible to clients.
func TestServeKillAndRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	buildDataDir(t, dir)

	first := NewServer(Config{DataDir: dir})
	if err := first.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(first.Handler())
	names := first.Store().Current().Names()
	before := make(map[string][]byte, len(names))
	for _, name := range names {
		status, body, _ := get(t, ts1.URL+"/artifacts/"+name)
		if status != http.StatusOK {
			t.Fatalf("%s: pre-restart status %d", name, status)
		}
		before[name] = body
	}
	ts1.Close()
	if err := first.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	second := NewServer(Config{DataDir: dir})
	if err := second.Init(context.Background()); err != nil {
		t.Fatalf("restart over the same dir failed: %v", err)
	}
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	for _, name := range names {
		status, body, _ := get(t, ts2.URL+"/artifacts/"+name)
		if status != http.StatusOK {
			t.Fatalf("%s: post-restart status %d", name, status)
		}
		if !bytes.Equal(body, before[name]) {
			t.Errorf("%s: bytes changed across restart", name)
		}
	}
}
